"""Inverse iteration for the smallest eigenpair in chaos coordinates.

One sweep maps the current normalized eigenvector expansion U through

    (1)  solve  (stiffness - shift * mass) V = mass U   by preconditioned CG,
         started from the energy-optimal combination of the previous
         sweep's V and the increments between the last sweeps' solves,
         whose operator products those solves formed,
    (2)  find the chaos coefficients s of the pointwise norm of V, by
         chord steps from the previous sweep's s on the inverse of its
         Galerkin multiplication operator, falling back to damped Newton
         where they stop halving the residual (cold Newton in the first
         sweep),
    (3)  divide V by s in the Galerkin sense,

all blockwise on (P, N) coefficient arrays.  This is the block sweep of
`subspace_iteration` at Q = 1, run by the same loop on U[:, :, None].  The
reciprocal of s also carries the eigenvalue: with a shift below the target
eigenvalue, mu(y) = shift + 1/s(y), so one Galerkin division of the
constant one by s yields the eigenvalue expansion of the step, the only
one a run computes.  Blocks are held in the mean eigenbasis (see
`galerkin`), where the mass is the identity: the right-hand side mass U of
step (1) is U itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .galerkin import GalerkinSystem
from .subspace_iteration import _iterate, initial_basis

__all__ = [
    "IterationHistory",
    "EigenpairResult",
    "initial_guess",
    "run_inverse_iteration",
]


@dataclass
class IterationHistory:
    """Per-sweep diagnostics of one inverse-iteration run.

    All arrays have one entry per executed sweep; eigenvalue_changes[0]
    is NaN because there is no previous estimate to compare with.
    `newton_iterations` counts chord and Newton steps together, and so
    does the column of that name in the iteration study's CSV.
    """

    increments: np.ndarray
    eigenvalue_means: np.ndarray
    eigenvalue_changes: np.ndarray
    cg_iterations: np.ndarray
    cg_tolerances: np.ndarray
    newton_iterations: np.ndarray

    def __len__(self):
        return len(self.increments)


@dataclass
class EigenpairResult:
    """Converged (or truncated) chaos expansion of the smallest eigenpair.

    U and the stored iterates are (P, N) blocks in the mean eigenbasis;
    `system.fem_op.to_nodal(U)` gives their nodal values.
    """

    system: GalerkinSystem
    U: np.ndarray
    eigenvalue: np.ndarray
    converged: bool
    history: IterationHistory
    iterates: list = field(default=None, repr=False)

    @property
    def eigenvalue_mean(self):
        return float(self.eigenvalue[0])

    @property
    def eigenvalue_variance(self):
        return float(np.sum(self.eigenvalue[1:] ** 2))


def initial_guess(system: GalerkinSystem):
    """Deterministic start: the mean-problem ground mode in the zero block,
    as the single column of `initial_basis`.  Unit tensor norm."""
    return initial_basis(system, 1)[:, :, 0]


def run_inverse_iteration(system: GalerkinSystem, tol=1e-10, kmax=50,
                          shift=0.0, initial=None, store_iterates=False):
    """Drive inverse iteration to a fixed point of the three-step sweep.

    Stops when the tensor norm of the iterate increment drops below tol
    (both iterates have unit pointwise norm up to truncation, so absolute
    and relative increments agree).  `initial` is a (P, N) block in the
    mean eigenbasis, scaled to unit tensor norm; by default
    `initial_guess`.  The CG tolerance follows the outer progress: a
    fraction `_CG_TOL_FACTOR` of the previous increment, floored at
    `_CG_TOL_FLOOR` (constants of `subspace_iteration`), and each solve
    starts from the projected start of step (1).

    `shift` speeds up the contraction, but it also moves the truncated
    fixed point: the sweep divides by the chaos expansion of the shifted
    solve's norm, a nonlinear map that the shift changes.  At P = 264
    (n = 16, both runs converged to 1e-12), a shift of 15 moves U by
    5.3e-7 and mu by 2.1e-7 relative, the mean of mu by 1.1e-11.
    """
    start = [initial_guess(system) if initial is None else
             np.array(initial, dtype=float) / np.linalg.norm(initial)]
    # the sign check below reads only the start's zero-index row; the block
    # is popped into the call, so _iterate frees it after the first sweep
    row = start[0][0].copy()
    B, converged, iterates, (inc, cg_its, cg_tols, newton_its, _, _, mu) = \
        _iterate(system, start.pop()[:, :, None], tol, kmax, store_iterates,
                 shift)
    if shift:
        mu = mu + shift * np.eye(1, system.P)[0]
    # safety net: pin the overall sign to the starting mode (the sweep maps
    # U to a positive multiple, so this only fires on pathological starts);
    # stored iterates keep their raw signs
    U = B[:, :, 0]
    if float(U[0] @ row) < 0.0:
        U = -U
    history = IterationHistory(
        inc[:, 0], mu[:, 0], np.append(np.nan, np.abs(np.diff(mu[:, 0]))),
        cg_its[:, 0], cg_tols, newton_its)
    if store_iterates:
        iterates = [S[:, :, 0] for S in iterates]
    return EigenpairResult(system, U, mu[-1], converged, history, iterates)
