"""Spectral inverse iteration: the Q = 1 view of the subspace sweep.

One sweep solves stiffness V = mass U by preconditioned CG, finds the
chaos coefficients s of the pointwise norm of V, and divides V by s in
the Galerkin sense, all blockwise on (P, N) coefficient arrays in the
mean eigenbasis (see `subspace_iteration` for how each step starts
from the previous sweep), on the sector where the ground mode lies and
which K(y) never couples to the rest: the x_1-even modes, with each chaos
row's x_2 modes of the parity of its class.  This is
`run_subspace_iteration` at Q = 1: one driver and one `SubspaceResult`,
whose `U` is the single basis column and whose `eigenvalue` is the
expansion mu = 1/s of the last sweep.
"""

from __future__ import annotations

import numpy as np

from .galerkin import GalerkinSystem
from .subspace_iteration import run_subspace_iteration

__all__ = ["run_inverse_iteration"]


def run_inverse_iteration(system: GalerkinSystem, tol=1e-10, kmax=50,
                          initial=None, store_snapshots=False):
    """Drive inverse iteration to a fixed point of the three-step sweep.

    Stops when the tensor norm of the iterate increment drops below tol
    (both iterates have unit pointwise norm up to truncation, so absolute
    and relative increments agree), in a sweep whose solves were held to
    tol.  `initial` is a (P, N) block in the mean eigenbasis, scaled to
    unit tensor norm; by default the mean ground mode plus its first-order
    perturbation correction (see `run_subspace_iteration`), and
    `initial_basis(system, 1)[:, :, 0]` is the mean ground mode itself.
    The sign of U follows the start.  The sweeps run on the x_1-even half
    of the coordinates whenever `fem.ParametricOperator.even_modes` holds,
    and on its x_2 class sector when `x2_terms_flip_parity` holds as well
    (see `subspace_iteration`): the part of the start off the sector is
    dropped, a start with none on it raises ValueError, and U is exactly
    zero off it.
    Returns the `SubspaceResult` of `run_subspace_iteration` with Q = 1,
    whose snapshots (when stored) are (P, N, 1) stacks.
    """
    if initial is not None:
        initial = np.asarray(initial, dtype=float)[..., None]
        norm = np.linalg.norm(initial)
        if not 0.0 < norm < np.inf:
            raise ValueError("start column 0 is zero or not finite")
        initial = initial / norm
    return run_subspace_iteration(system, 1, tol, kmax, initial=initial,
                                  store_snapshots=store_snapshots)
