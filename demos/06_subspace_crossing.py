"""Spectral subspace iteration: clustered eigenvalues and a crossing.

The second and third eigenvalues of this operator are nearly degenerate
and cross as the first parameter sweeps its range, so the individual
eigenvectors are not smooth in the parameter -- but their span is.  The
block iteration therefore converges as a subspace: the alignment angle
between the iterated basis (evaluated at random parameter points) and a
directly computed invariant subspace tends to 1, while individual columns
may keep rotating inside the cluster.
"""

import numpy as np

from chaoseig.galerkin import build_system
from chaoseig.subspace_iteration import run_subspace_iteration
from chaoseig.validation import (
    angle_statistics,
    overlap_permutation,
    pointwise_eigenpairs,
)

sys_ = build_system(n=8, order=1, size=52)
res = run_subspace_iteration(sys_, q=3, tol=1e-9, kmax=10,
                             store_snapshots=True)
print(f"block of 3, {len(res.history.max_increments)} sweeps, "
      f"converged = {res.converged}")
print("(individual increments may floor while the span keeps improving)")
print()

mean, var = angle_statistics(sys_.fem_op, sys_.aset, res.snapshots,
                             npoints=128, seed=7)
print(" k   E[alignment]    Var[alignment]")
for k in range(len(mean)):
    print(f"{k:2d}   {mean[k]:.10f}   {var[k]:.3e}")
print()

# eigenvalue crossing along the first parameter coordinate
print("second/third eigenvalue sweep over the first coordinate:")
grid = np.linspace(-1.0, 1.0, 9)
sweep, _ = pointwise_eigenpairs(sys_.fem_op, grid[:, None], 3, tol=1e-11)
for y1, vals in zip(grid, sweep):
    print(f"  y1 = {y1:5.2f}   {vals[1]:.5f}   {vals[2]:.5f}   "
          f"gap {vals[2] - vals[1]:.5f}")
perm, _, _ = overlap_permutation(sys_.fem_op, [-1.0], [1.0])
print()
print(f"endpoint eigenvector pairing across the sweep: "
      f"{[int(p) for p in perm]}")
print("([1, 0] means the two branches exchange order: a crossing)")
