"""The sweep and validation loops run on numpy.linalg only.

The numpy and scipy wheels each bundle their own OpenBLAS with its own
thread pool; alternating between them inside a loop makes the two pools
compete for the cores.  With the dense scipy.linalg routines made to
raise, every per-sweep, per-point and per-iteration path must still run,
from a fresh system: that includes the set-up each operator runs once
inside its first solve, the 1D mean eigenbasis.
"""

import numpy as np
import scipy.linalg

from chaoseig.galerkin import build_system
from chaoseig.inverse_iteration import run_inverse_iteration
from chaoseig.subspace_iteration import run_subspace_iteration
from chaoseig.validation import (
    angle_statistics,
    monte_carlo_statistics,
    overlap_permutation,
    pointwise_eigenpairs,
    pointwise_error,
)

DISABLED = ("lu_factor", "lu_solve", "solve", "cholesky", "solve_triangular",
            "eigh", "get_lapack_funcs")


def test_loops_avoid_scipy_linalg(monkeypatch):
    sys = build_system(n=3, order=1, size=5)

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg called inside a loop")

    for name in DISABLED:
        monkeypatch.setattr(scipy.linalg, name, refuse)
    inv = run_inverse_iteration(sys, tol=0.0, kmax=2)
    assert len(inv.history) == 2
    sub = run_subspace_iteration(sys, q=2, tol=0.0, kmax=2,
                                 store_snapshots=True)
    assert len(sub.history) == 2
    op = sys.fem_op
    vals, vecs = pointwise_eigenpairs(op, np.zeros((1, op.nterms)), 2)
    assert vals[0, 0] < vals[0, 1] and vecs.shape == (1, op.ndof, 2)
    rep = pointwise_error(op, sys.aset, inv.U, inv.eigenvalue,
                          np.zeros(sys.aset.max_dimension))
    assert rep["residual"] < 1.0
    mean, _ = angle_statistics(op, sys.aset, sub.snapshots, npoints=4)
    assert mean.shape == (3,)
    mc = monte_carlo_statistics(op, nsamples=8, seed=3)
    assert mc["eigenvalue_mean"] > 0.0
    perm, _, _ = overlap_permutation(op, [-1.0], [1.0])
    assert sorted(perm) == [0, 1]
