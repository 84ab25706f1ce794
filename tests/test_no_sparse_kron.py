"""No N x N sparse matrix is formed in the package.

The spatial operator is held only as 1D factors: the mass and the moves
into and out of the mean eigenbasis act on (n, n) slices, and the sweep
and the pointwise solves run on the factors in that eigenbasis.
With scipy.sparse.kron made to raise, building a system, both iteration
drivers and every validation route must still run.
"""

import numpy as np
import scipy.sparse

from chaoseig.galerkin import build_system
from chaoseig.inverse_iteration import run_inverse_iteration
from chaoseig.subspace_iteration import run_subspace_iteration
from chaoseig.validation import (
    angle_statistics,
    coefficient_decay,
    monte_carlo_statistics,
    pointwise_error,
)


def test_package_forms_no_sparse_kron(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.sparse.kron called")

    monkeypatch.setattr(scipy.sparse, "kron", refuse)
    sys = build_system(n=3, order=1, size=5)
    op = sys.fem_op
    inv = run_inverse_iteration(sys, tol=0.0, kmax=2)
    assert len(inv.history) == 2
    sub = run_subspace_iteration(sys, q=2, tol=0.0, kmax=2,
                                 store_snapshots=True)
    assert len(sub.history) == 2
    rep = pointwise_error(op, sys.aset, inv.U, inv.eigenvalue,
                          np.zeros(sys.aset.max_dimension))
    assert rep["residual"] < 1.0
    mean, _ = angle_statistics(op, sys.aset, sub.snapshots, npoints=4)
    assert mean.shape == (3,)
    mc = monte_carlo_statistics(op, nsamples=8, seed=3)
    assert mc["eigenvalue_mean"] > 0.0
    decay = coefficient_decay(sys.aset, inv.U)
    assert decay["magnitudes"][0] > 0.0
