"""Chaos coefficient decay and convergence in the basis size.

The coefficient blocks of the eigenpair expansion decay algebraically when
listed in the canonical (weight-ordered) enumeration, which is what makes
the truncated basis efficient.  Nested index sets then give a convergent
family: the error against a larger reference set falls algebraically in
the basis cardinality.  Uses the library's study runner, which writes CSVs
and a hash-carrying manifest into a temporary directory that the demo
reads before removing it.
"""

import json
import tempfile
from pathlib import Path

from chaoseig.experiments import ExperimentConfig, fit_slope, run_experiment
from chaoseig.galerkin import build_system
from chaoseig.inverse_iteration import run_inverse_iteration
from chaoseig.validation import coefficient_decay

sys_ = build_system(n=8, order=2, size=64)
res = run_inverse_iteration(sys_, tol=1e-10, kmax=30)
# res.U holds mean-eigenbasis coordinates, where each row's mass norm is
# its plain norm
rep = coefficient_decay(sys_.aset, res.U)
print("eigenvector coefficient magnitudes (canonical order, first 16):")
for i, mag in enumerate(rep["magnitudes"][:16]):
    print(f"  rank {i + 1:3d}   {mag:.4e}")
slope, se = fit_slope(range(1, len(rep["magnitudes"]) + 1),
                      rep["magnitudes"], skip=len(rep["magnitudes"]) // 4)
print(f"algebraic tail rate: rank^{slope:+.2f} (stderr {se:.2f})")
print()

cfg = ExperimentConfig(kind="stochastic", n=8, order=2, kmax=12, tol=1e-10,
                       set_sizes=(8, 15, 31), reference_size=64)
with tempfile.TemporaryDirectory() as tmp:
    outdir = run_experiment(cfg, outdir=Path(tmp) / "stochastic")
    manifest = json.loads((outdir / "manifest.json").read_text())
    table = (outdir / "stochastic.csv").read_text()
print("basis-size sweep against a 64-term reference:")
print(table)
print(f"fitted error slope: {manifest['summary']['error_slope']:.2f}")
print(f"config hash {manifest['config_hash']}; every row of the table "
      f"carries it")
