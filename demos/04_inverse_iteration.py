"""Spectral inverse iteration: the smallest eigenpair as a chaos expansion.

One run on a desk-scale problem, from the mean ground mode.  The increment
between consecutive coefficient blocks contracts geometrically; the
contraction factor matches the gap ratio of the two smallest eigenvalues
of the mean problem.  The solver's default start, the mean mode with its
first-order perturbation correction, reaches the same tolerance in fewer
sweeps.  At the end the expansion is evaluated at a random parameter point
and checked against a direct solve there.
"""

import numpy as np

from chaoseig.galerkin import build_system
from chaoseig.inverse_iteration import run_inverse_iteration
from chaoseig.subspace_iteration import initial_basis
from chaoseig.validation import pointwise_error

sys_ = build_system(n=8, order=2, size=31)
# the sweeps run on the x_1-even half of the mean eigenbasis, which K(y)
# never couples to the other half, and within it on each chaos row's x_2
# modes of the parity of its class: a quarter of the block
half = sys_.operator_on(sys_.fem_op.even_modes)
quarter = sys_.operator_on(sys_.fem_op.even_modes, True)
print(f"chaos basis size {sys_.P}, spatial dofs {sys_.N}, "
      f"of which the sweeps keep {quarter.N} (x_2 classes of the "
      f"x_1-even half, {half.N} columns)")

res = run_inverse_iteration(sys_, tol=1e-10, kmax=30,
                            initial=initial_basis(sys_, 1)[:, :, 0])
default = run_inverse_iteration(sys_, tol=1e-10, kmax=30)
for label, run in (("mean mode", res), ("perturbed (default)", default)):
    print(f"{label} start: converged = {run.converged} after "
          f"{len(run.history)} sweeps, "
          f"{run.history.cg_iterations.sum()} CG iterations")
print()

vals, _ = sys_.fem_op.mean_eigenpairs(2)
rho = vals[0] / vals[1]
print(f"mean-problem gap ratio (predicted contraction): {rho:.5f}")
print(" k   increment     ratio     cg its")
# one column per basis vector; inverse iteration has one
inc = res.history.increments[:, 0]
for k in range(len(inc)):
    ratio = inc[k] / inc[k - 1] if k else np.nan
    print(f"{k + 1:2d}   {inc[k]:.3e}   {ratio:7.4f}   "
          f"{res.history.cg_iterations[k, 0]:3d}")
print()

print(f"eigenvalue mean     = {res.eigenvalue_mean:.10f}")
print(f"eigenvalue variance = {res.eigenvalue_variance:.3e}")
# res.U holds mean-eigenbasis coordinates; to_nodal gives the FE values
mean_mode = sys_.fem_op.to_nodal(res.U[0])
print(f"mean eigenfunction: largest nodal value {mean_mode.max():.6f}")
print()

rng = np.random.default_rng(11)
y = rng.uniform(-1.0, 1.0, sys_.fem_op.nterms)
e = pointwise_error(sys_.fem_op, sys_.aset, res.U, res.eigenvalue, y)
print("evaluation at one random parameter point vs direct solve:")
print(f"  eigenvalue error   {e['eigenvalue_error']:.3e}")
print(f"  eigenvector error  {e['vector_error']:.3e}")
print(f"  algebraic residual {e['residual']:.3e}")
print(f"  |norm - 1|         {e['normalization_error']:.3e}")
