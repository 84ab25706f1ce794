"""Spatial discretization: mean-problem eigenvalues under mesh refinement.

The mean coefficient is 1, so the smallest exact eigenvalues on the unit
square are known in closed form (2 pi^2, then a degenerate pair at
5 pi^2).  Bilinear elements converge at rate h^2 in the eigenvalue,
biquadratic elements at h^4.  The discrete mean eigenvalues come exactly
from the 1D factors: lam_i + lam_j of the 1D generalized eigenproblem.
"""

import numpy as np

from chaoseig.fem import build_mesh, build_parametric_operator

exact = 2.0 * np.pi ** 2
print(f"exact smallest eigenvalue: 2 pi^2 = {exact:.8f}")
print()

for order in (1, 2):
    print(f"element order {order}:")
    prev = None
    for n in (4, 8, 16, 32):
        mesh = build_mesh(n, order)
        op = build_parametric_operator(mesh)
        vals, _ = op.mean_eigenpairs(1)
        err = vals[0] - exact
        rate = "" if prev is None else f"  rate {np.log2(prev / err):5.2f}"
        print(f"  n = {n:2d}  h = {mesh.h:7.4f}  eigenvalue = {vals[0]:.8f}"
              f"  error = {err:.3e}{rate}")
        prev = err
    print()
