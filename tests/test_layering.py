"""The solver modules and the reference solvers leave each other unloaded.

`validation` checks the spectral iteration from outside, so the two sides
must not use each other: a fault they shared would pass unseen.  `fem`,
held in 1D factors, needs no sparse matrices, nor does `legendre`, which
reads the raise matrices off the triple tensor.  The imports run in child
processes, where no other test has loaded a module.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOLVERS = """
import sys
import chaoseig.galerkin
import chaoseig.inverse_iteration
import chaoseig.subspace_iteration
loaded = sorted(m for m in sys.modules if m.startswith("chaoseig"))
assert "chaoseig.validation" not in loaded, loaded
"""

REFERENCE = """
import sys
import numpy as np
from chaoseig.fem import build_mesh, build_parametric_operator
from chaoseig.multiindex import generate_index_set_by_size
from chaoseig.validation import angle_statistics, monte_carlo_statistics
op = build_parametric_operator(build_mesh(4, 1), nterms=2)
aset = generate_index_set_by_size(3)
snap = np.zeros((len(aset), op.ndof, 3))
snap[0] = op.mean_eigenpairs(3)[1]
mean, _ = angle_statistics(op, aset, [snap], npoints=4)
assert mean[0] > 0.9, mean
assert monte_carlo_statistics(op, nsamples=4)["eigenvalue_mean"] > 0.0
loaded = sorted(m for m in sys.modules if m.startswith("chaoseig"))
for name in ("galerkin", "inverse_iteration", "subspace_iteration"):
    assert "chaoseig." + name not in loaded, loaded
"""


FEM = """
import sys
import chaoseig.fem
import chaoseig.legendre
assert "scipy.sparse" not in sys.modules, sorted(sys.modules)
"""


def run_child(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_solvers_do_not_import_validation():
    proc = run_child(SOLVERS)
    assert proc.returncode == 0, proc.stderr


def test_validation_does_not_import_solvers():
    proc = run_child(REFERENCE)
    assert proc.returncode == 0, proc.stderr


def test_fem_does_not_import_scipy_sparse():
    proc = run_child(FEM)
    assert proc.returncode == 0, proc.stderr
