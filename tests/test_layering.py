"""The solver modules leave the reference solvers unimported.

`validation` checks the spectral iteration from outside, so the solver
modules must not use it: a fault the two shared would pass unseen.  The
imports run in a child process, where no other test has loaded a module.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import sys
import chaoseig.galerkin
import chaoseig.inverse_iteration
import chaoseig.subspace_iteration
loaded = sorted(m for m in sys.modules if m.startswith("chaoseig"))
assert "chaoseig.validation" not in loaded, loaded
"""


def test_solvers_do_not_import_validation():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
