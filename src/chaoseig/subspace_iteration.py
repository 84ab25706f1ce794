"""Block spectral iteration for low-dimensional invariant subspaces.

The sweep of spectral inverse iteration, on a basis of Q expansions held
as a (P, N, Q) stack.  Each sweep solves the Galerkin system per basis
vector, optionally pools the solves into the first vector (`sum_trick`,
which changes the basis inside the span of the solves, not the span),
then runs one Gram-Schmidt pass in the Galerkin product sense: the
projection of w onto u removes the chaos expansion of <w(y), u(y)> times
u, and each vector is divided by the expansion of its pointwise norm.
Pointwise products of truncated expansions fall outside the chaos space,
so the pass leaves an orthogonality defect at truncation level.  The
sweep records it and does not refine: another pass lowers the defect but
does not move the span.  At Q = 1 this is spectral inverse iteration,
and `inverse_iteration` is that view of `run_subspace_iteration`.

Unless given a start, a run starts from the mean modes of
`initial_basis` plus their first-order Rayleigh-Schroedinger corrections
(`_perturbed_basis`), at one operator product per column.  The sweeps
contract by the same mean gap ratio from a closer start: on the
fine-mesh benchmark system 17 sweeps reach the tolerance the mean modes
reach in 21.

The right-hand sides of consecutive sweeps converge geometrically, so the
last few solves predict the next one.  Each solve starts from the point
of least energy-norm error in its vector's last solve plus the span of
the window: the other vectors' last solves and every vector's increments
between the last `_WINDOW` sweeps' solves (Fischer, CMAME 163, 1998).
All of them carry their operator products, so the start costs a small
Gram system and no operator product, and it often meets the CG tolerance
outright.

The normalizations converge with the sweeps as well.  Each column of a
sweep hands its norm expansion s and the inverse of its Galerkin
multiplication operator, which the division needs anyway
(`DeltaFactor`), to the same column of the next sweep.  There
`newton_normalize` starts from s rescaled onto the new block's norm and
takes chord steps on that inverse: a matvec each where a Newton step
solves a P x P system, and late sweeps need none or one.  Where the
chord steps stop halving the residual, damped Newton takes over; the
first sweep, which has no previous one, starts cold at ||V|| e_0.  The
Newton iterations the history records count chord and Newton steps
together.

Blocks are held in the mean eigenbasis (see `galerkin`), where the mass
is the identity: the right-hand side of a solve is the basis vector
itself, tensor norms are Frobenius norms and Gram matrices plain
products.

K(y) keeps the coordinates whose x_1 mean mode is even about x_1 = 1/2
among themselves (`fem.ParametricOperator.even_modes`).  When the q mean
modes of the cluster all lie there, as the ground mode at Q = 1 does, a
run sweeps on that half alone, with the operator
`GalerkinSystem.operator_on` builds for it, and on the x_2 classes within
it (`fem.ParametricOperator.x2_terms_flip_parity`) when the q mean modes
are x_2-even too: a quarter of the block.  Rows of two classes hold
different x_2 modes in one slot, so their row Gram entries are zero, and
the division inverts each class block apart (`DeltaFactor`).  The run
projects the start onto the sector, and expands the basis and the
snapshots back to full size, exactly zero off the sector, before it
returns; mu = 1/s is zero on the class-1 rows.  Otherwise, as at Q > 1 on
the built-in family, whose cluster spans both x_1 parities, it sweeps on
every coordinate.

At Q = 1 the reciprocal of s also carries the eigenvalue, mu(y) =
1/s(y), so one Galerkin division of the constant one by s yields the
eigenvalue expansion of the sweep, the only one a run computes.  At
Q > 1 per-vector eigenvalue expansions are deliberately not produced:
when eigenvalues cross inside the tracked cluster, individual pairs are
not smooth functions of the parameter and only the subspace itself is a
meaningful object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .galerkin import (
    DeltaFactor,
    GalerkinSystem,
    newton_normalize,
    pcg_solve,
)

__all__ = [
    "SubspaceBreakdownError",
    "SubspaceHistory",
    "SubspaceResult",
    "initial_basis",
    "subspace_iterate_once",
    "run_subspace_iteration",
]

# fixed numerics of the sweep; the driver holds the CG tolerance schedule
_CG_TOL_FLOOR = 1e-12
_CG_TOL_FACTOR = 1e-3
_CG_MAXITER = 500
# sweeps whose solves span the next sweep's CG starts
_WINDOW = 3
_BREAKDOWN_TOL = 1e-10


class SubspaceBreakdownError(RuntimeError):
    """A basis vector lost (numerically) all of its length during the
    Gram-Schmidt pass: the iterated basis has collapsed to fewer than Q
    independent directions."""


@dataclass
class SubspaceHistory:
    """Per-sweep diagnostics, one row per executed sweep.

    `increments` (tensor norms) and `cg_iterations` are (K, Q), one column
    per basis vector; `newton_iterations` counts the chord and Newton
    steps of all the sweep's normalizations together.  `eigenvalue_means`
    (the mean of each sweep's mu) is None at Q > 1.
    `orthogonality_defects`, a diagnostic, sits at truncation level: 1e-8
    to 5e-5 for a pooled basis, at most 5e-8 unpooled, on the runs measured.
    """

    increments: np.ndarray
    cg_iterations: np.ndarray
    cg_tolerances: np.ndarray
    newton_iterations: np.ndarray
    # always 0, as is the fourth slot of `subspace_iterate_once`'s tuple:
    # the benchmark reads both, and ROADMAP item 1 drops them together
    # with its `subspace_iteration.extra_passes` counter
    extra_orthogonalizations: np.ndarray
    orthogonality_defects: np.ndarray
    eigenvalue_means: np.ndarray = None

    @property
    def max_increments(self):
        return self.increments.max(axis=1)

    def __len__(self):
        return len(self.increments)


@dataclass
class SubspaceResult:
    """Iterated basis of an invariant subspace: `basis` and the snapshots
    are (P, N, Q) stacks in the mean eigenbasis, and `U` is the first
    column.  `eigenvalue` is the last sweep's mu = 1/s at Q = 1;
    at Q > 1 it and its statistics are None.
    """

    system: GalerkinSystem
    basis: np.ndarray
    converged: bool
    history: SubspaceHistory
    snapshots: list = field(default=None, repr=False)
    eigenvalue: np.ndarray = None
    U: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.U = self.basis[:, :, 0]

    @property
    def eigenvalue_mean(self):
        mu = self.eigenvalue
        return None if mu is None else float(mu[0])

    @property
    def eigenvalue_variance(self):
        mu = self.eigenvalue
        return None if mu is None else float(np.sum(mu[1:] ** 2))


def initial_basis(system: GalerkinSystem, q):
    """Mean-problem eigenvectors in the zero block, one per basis column.

    The q smallest, exact from the operator's 1D mean eigenbasis (see
    `ParametricOperator.mean_eigenpairs`, which fixes ties and signs): unit
    coordinate vectors, so every column has unit tensor norm; all
    fluctuation blocks start at zero.
    """
    B = np.zeros((system.P, system.N, q))
    B[0] = system.fem_op.mean_eigenpairs(q)[1]
    return B


def _sector(system: GalerkinSystem, q):
    """The operator a q-vector run sweeps with: on the x_1-even modes when
    the q mean modes all are, and on their x_2 classes when the q mean
    modes are x_2-even and the x_2 terms flip parity; else every mode."""
    fem_op = system.fem_op
    even = fem_op.even_modes
    x2, x1 = np.divmod(np.argmax(fem_op.mean_eigenpairs(q)[1], axis=0),
                       len(fem_op.mean_values))
    if even is None or not np.isin(x1, even).all():
        return system.operator
    return system.operator_on(even, fem_op.x2_terms_flip_parity
                              and np.isin(x2, even).all())


def _restrict(op, B):
    """The coordinates on op's sector of a (P', N, Q) stack of the first
    P' <= P chaos rows, in op's layout; the padded slots are zero."""
    pos = op.coords[op.classes[:len(B)]]
    keep = pos >= 0
    out = np.zeros(pos.shape + B.shape[2:])
    out[keep] = B[np.nonzero(keep)[0], pos[keep]]
    return out


def _expand(op, B):
    """The (P, N, Q) stack, zero off op's sector, whose coordinates on it
    are B."""
    pos = op.coords[op.classes]
    keep = pos >= 0
    out = np.zeros((op.P, op.n ** 2, B.shape[2]))
    out[np.nonzero(keep)[0], pos[keep]] = B[keep]
    return out


def _perturbed_basis(system: GalerkinSystem, q, op):
    """The mean modes with their first-order Rayleigh-Schroedinger
    corrections, in the coordinates of the operator `op`: the default
    start of `run_subspace_iteration`.

    Column j is E_j - (K_0 - mu_j)^+ (K E_j - K_0 E_j), scaled to unit
    tensor norm, for column E_j of `initial_basis` and its mean eigenvalue
    mu_j (Kato, Perturbation Theory for Linear Operators, 1966).  K_0
    scales every chaos row by `mean_values`, and the pseudo-inverse drops
    each coordinate whose mean value is one of the q cluster values.  Ties
    are exact, as lam_i + lam_j and lam_j + lam_i are one sum, so a cluster
    cut through a degenerate level divides by no zero.  E_j's one nonzero
    sits at a dropped coordinate, and so does K_0 E_j: the column is the
    division of K E_j away from the dropped coordinates and E_j on them.
    One operator product per column.
    """
    mu, modes = system.fem_op.mean_eigenpairs(q)
    modes = _restrict(op, modes[None])[0]
    cut = np.isin(op.mean, mu)  # (P, N), or (1, N) for one class
    B = np.empty((op.P, op.N, q))
    E = np.zeros((op.P, op.N))
    for j in range(q):
        E[0] = modes[:, j]
        W = op.apply(E)
        np.divide(W, mu[j] - op.mean, out=W, where=~cut)
        np.copyto(W, E, where=cut)
        np.divide(W, np.linalg.norm(W), out=B[:, :, j])
    return B


def _gram(A, B, classes):
    """The row Gram A B^T of two (P, N) blocks, zero between rows of
    different `classes` (None for one), whose slots hold other x_2 modes."""
    G = A @ B.T
    if classes is not None:
        G[classes[:, None] != classes] = 0.0
    return G


def _defect(tt, B, classes):
    """Largest chaos-coefficient norm of <u_i(y), u_j(y)> over pairs i<j of
    a (P, N, Q) stack in the mean eigenbasis, with row `classes` as in
    `_gram`."""
    q = B.shape[2]
    grams = (tt.contract_gram(_gram(B[:, :, i], B[:, :, j], classes))
             for i in range(q) for j in range(i + 1, q))
    return max((float(np.linalg.norm(f)) for f in grams), default=0.0)


def _orthonormalize(tt, columns, classes, starts=()):
    """One Galerkin Gram-Schmidt pass over columns, normalizing each.

    `classes` are the columns' row classes, as in `_gram`.  `starts` is
    empty or holds one (s, inverse) pair per column, as the previous
    sweep's pass returned them: the column's normalization then starts
    from it (see `newton_normalize`).  Returns the (P, N, Q)
    basis, each of whose columns is contiguous, the Newton iterations of
    the pass, the expansion of 1/s for the first column's norm expansion
    s, and the pass's own (s, inverse) pairs.
    """
    P, N = columns[0].shape
    out = np.empty((len(columns), P, N)).transpose(1, 2, 0)
    pairs = []
    newton_steps = 0
    for L, W in enumerate(columns):
        for i in range(L):
            coeff = tt.contract_gram(_gram(W, out[:, :, i], classes))
            W = W - tt.multiply_matrix(coeff) @ out[:, :, i]
        norm = np.linalg.norm(W)
        if norm <= _BREAKDOWN_TOL:
            raise SubspaceBreakdownError(
                f"basis vector collapsed to tensor norm {norm:.3e} during "
                f"orthogonalization against {L} previous vectors")
        s, nhist = newton_normalize(
            tt, tt.contract_gram(_gram(W, W, classes)),
            starts[L] if starts else None)
        factor = DeltaFactor(tt, s, classes)
        if L == 0:
            inv_s = factor.solve(np.eye(1, tt.size)[0])
        factor.solve(W, out=out[:, :, L])
        pairs.append((s, factor.inverse))
        newton_steps += len(nhist) - 1
    return out, newton_steps, inv_s, pairs


def subspace_iterate_once(system: GalerkinSystem, B, cg_tol=1e-12,
                          warm_starts=None, sum_trick=False,
                          normalizers=None, operator=None):
    """One block sweep: per-vector solves, then orthonormalization.

    B is a (P, N, Q) stack in the mean eigenbasis, and so are B_next and
    the solves; given an `operator` from `system.operator_on`, N is its
    own and the stacks hold the coordinates on its sector.  Returns
    (B_next, solves, cg_iteration_counts, extra_passes, newton_iterations,
    inv_s, defect, normalizers).
    `solves` holds one pair (V, K V) per vector: the raw CG solution and
    the operator's product with it (`PcgInfo.product`).  `warm_starts`
    holds such pairs, one per vector, optionally followed by more (D, K D)
    pairs: the solve of vector L starts from its pair, moved to the
    energy-optimal point of that pair plus the span of all the others
    (`pcg_solve`'s `window`), at no operator product.
    `extra_passes` is always 0 (see `SubspaceHistory`).  `inv_s` is the
    Galerkin division of the constant one by the first column's norm
    expansion s (at Q = 1, mu = 1/s is the eigenvalue expansion), and
    `defect` is the orthogonality defect of B_next.  `normalizers` holds
    the (s, `DeltaFactor.inverse`) pair of each column's normalization;
    given back to the next sweep, they start its normalizations (see
    `_orthonormalize`).
    """
    q = B.shape[2]
    op = system.operator if operator is None else operator
    tt = system.tt
    solves = []
    cg_counts = []
    starts = warm_starts or ()
    for L in range(q):
        V, info = pcg_solve(op, B[:, :, L], tol=cg_tol, maxiter=_CG_MAXITER,
                            start=starts[L] if starts else None,
                            window=[*starts[:L], *starts[L + 1:]])
        if not info.converged:
            where = f" on basis vector {L}" if q > 1 else ""
            after = "" if q > 1 else f" after {info.iterations} iterations"
            raise RuntimeError(
                f"inner CG stalled{where} at relative residual "
                f"{info.relative_residual:.3e}{after}")
        solves.append((V, info.product))
        cg_counts.append(info.iterations)
    work = [V for V, _ in solves]
    if sum_trick:
        # the leading vector becomes the sum of the solves: the basis
        # changes inside their span, the span does not
        work[0] = np.sum(work, axis=0)
    classes = op.classes if len(op.x2) > 1 else None
    B_next, newton_steps, inv_s, pairs = _orthonormalize(
        tt, work, classes, normalizers or ())
    return (B_next, solves, np.asarray(cg_counts, dtype=int), 0,
            newton_steps, inv_s, _defect(tt, B_next, classes), pairs)


def run_subspace_iteration(system: GalerkinSystem, q, tol=1e-8, kmax=30,
                           sum_trick=False, initial=None,
                           store_snapshots=False):
    """Sweep a Q-vector basis until its largest increment is below tol
    in a sweep whose solves were held to tol.

    The start (`initial`), the basis and the snapshots are (P, N, Q)
    stacks in the mean eigenbasis; snapshot k is the basis after k sweeps.
    By default the start is `_perturbed_basis`: each mean mode of
    `initial_basis` plus its first-order correction, at unit tensor norm;
    pass `initial_basis(system, q)` to start from the mean modes
    themselves.  The sign of each vector follows the start: the sweep is
    odd, so a negated start gives the negated basis, bit for bit, with the
    same eigenvalue and history.  When the run keeps a sector of the mean
    eigenbasis (see the module docstring), the part of the start off it is
    dropped, and a start column with no part on it raises ValueError; the
    basis and the snapshots are zero off it.

    The CG tolerance is a fraction `_CG_TOL_FACTOR` of the previous sweep's
    largest increment, floored at `_CG_TOL_FLOOR`.  Each solve starts from
    its projection on the window (see the module docstring), so it costs
    exactly its CG iterations in operator products.  A projected start
    lands just under its target, where the plain warm start's two CG steps
    overshot it about eightfold, so the factor is 1e-3 where that start
    used 1e-2: the solves end up at least as accurate, save those whose
    target is the floor.  Each normalization starts from the same column's
    root and factor in the previous sweep.  A small increment after a
    loose solve shows only that the start was close, so the run converges
    only in a sweep whose CG tolerance was at most max(tol, floor).
    """
    if q < 1:
        raise ValueError("need at least one basis vector")
    if q > system.N:
        raise ValueError(f"q = {q} exceeds the N = {system.N} spatial dofs")
    if kmax < 1:
        raise ValueError("kmax must be positive")
    op = _sector(system, q)
    # on every coordinate the sweep's stacks are full-size already
    whole = op.N == system.N
    if initial is None:
        B = _perturbed_basis(system, q, op)
    else:
        B = np.array(initial, dtype=float)
        if B.shape != (system.P, system.N, q):
            raise ValueError(f"basis shape {B.shape}, expected "
                             f"{(system.P, system.N, q)}")
        bad = ~(np.isfinite(B).all(axis=(0, 1)) & B.any(axis=(0, 1)))
        if bad.any():
            raise ValueError(
                f"start column {bad.argmax()} is zero or not finite")
        if not whole:
            B = _restrict(op, B)
            bad = ~B.any(axis=(0, 1))
            if bad.any():
                within = (", within each chaos row's x_2 class"
                          if len(op.x2) > 1 else "")
                raise ValueError(
                    f"start column {bad.argmax()} has no part in the "
                    f"x_1-even sector of the mean eigenbasis{within}, the "
                    f"only one a {q}-vector run on this system sweeps")

    def full(B):
        # a full-size copy: the snapshots and the basis returned
        return B.copy() if whole else _expand(op, B)

    snapshots = [full(B)] if store_snapshots else None
    rows = []
    warm, deltas = [], []
    normalizers = None
    prev_inc = 1.0
    for _ in range(kmax):
        cg_tol = max(_CG_TOL_FLOOR, _CG_TOL_FACTOR * prev_inc)
        (B_next, solves, counts, extra, newton_steps, inv_s, defect,
         normalizers) = subspace_iterate_once(
            system, B, cg_tol, [*warm, *deltas] or None, sum_trick,
            normalizers, op)
        # the last sweep's pairs turn into the newest increments in place,
        # as nothing else holds them; the oldest increments drop out
        deltas = [*(tuple(np.subtract(new, old, out=old)
                          for new, old in zip(pair, prev))
                    for pair, prev in zip(solves, warm)),
                  *deltas][:(_WINDOW - 1) * q]
        warm = solves
        # so does the old basis: the snapshots are copies, and the start is
        # this function's own array
        inc = np.linalg.norm(np.subtract(B, B_next, out=B), axis=(0, 1))
        # one entry per field of SubspaceHistory, in its order
        rows.append((inc, counts, cg_tol, newton_steps, extra, defect,
                     inv_s[0]))
        B = B_next
        if store_snapshots:
            snapshots.append(full(B))
        prev_inc = float(inc.max())
        converged = prev_inc < tol and cg_tol <= max(tol, _CG_TOL_FLOOR)
        if converged:
            break
    *records, means = (np.asarray(r) for r in zip(*rows))
    if q > 1:
        # mu = 1/s is an eigenvalue expansion only at Q = 1
        inv_s = means = None
    return SubspaceResult(system, B if whole else full(B), converged,
                          SubspaceHistory(*records, means), snapshots, inv_s)
