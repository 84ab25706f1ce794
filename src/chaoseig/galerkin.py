"""Kronecker-structured solver kernels on the chaos-FEM product space.

A coefficient block for a vector-valued chaos expansion is stored as a dense
(P, N) array: row a holds the spatial coefficient vector of chaos index a.
Scalar expansions are plain (P,) arrays.  Nothing in this module ever forms
the PN x PN system matrix; the stiffness operator

    sum_m  (raise matrix m)  (x)  (stiffness term m)

is applied blockwise on the separable stiffness terms (see `fem`): each
spatial block is an (n, n) array acted on by batched small matmuls, and
term m only touches the chaos rows its raise matrix couples.

Blocks are held in the mean eigenbasis Q (x) Q of
`fem.ParametricOperator.mean_eigenbasis`: a block of coordinates Y has
nodal values Q Y Q^T per slice.  There the mass is the identity, so the
tensor norm sum_a V[a] . M V[a] of the nodal values is the plain
Frobenius norm of the coordinates; the mean term K_0 is the elementwise
scaling by lam_i + lam_j and its inverse, the preconditioner, a division;
each fluctuation term keeps dense 1D factors Q^T M_m Q and Q^T A_m Q.

An operator may act on a sector of the coordinates that K(y) never
couples to the rest, the rest held at zero: the x_1-even modes, and of
those each chaos row's x_2 modes of the parity of its class (see
`KroneckerOperator`).  There its product equals the full product
restricted to the sector, at about a quarter of the work.
`GalerkinSystem.operator_on` builds one operator per sector.

`pcg_solve` moves its warm start to the energy-optimal point of the start
plus the span of a window of earlier solutions and increments, from their
carried operator products alone.  Such a start lands just under the CG
target, where a plain warm start overshot it, so the sweep's tolerance
factor in `subspace_iteration` is 1e-3, not 1e-2.

`newton_normalize` likewise takes a start carried from the previous
sweep: that sweep's root and the `DeltaFactor.inverse` of its Galerkin
multiplication operator, on which it takes chord steps, a P x P matvec
each, before any Newton step with its P x P LU solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fem import ParametricOperator, build_mesh, build_parametric_operator
from .legendre import TripleProductTensor, build_triple_tensor
from .multiindex import generate_index_set, generate_index_set_by_size

__all__ = [
    "IndefiniteOperatorError",
    "NearSingularError",
    "KroneckerOperator",
    "PcgInfo",
    "pcg_solve",
    "DeltaFactor",
    "newton_normalize",
    "GalerkinSystem",
    "build_system",
]


class IndefiniteOperatorError(RuntimeError):
    """Negative curvature met in CG or in a start window: the operator is
    not positive definite, or a warm start's carried products do not
    belong to it."""


class NearSingularError(RuntimeError):
    """Galerkin multiplication operator numerically singular: the scalar
    normalization expansion is losing pointwise positivity."""


# KroneckerOperator.apply gathers at most this many bytes of (n, n) slices
# at a time: its temporaries beside the output stay a few times that size,
# and in cache.
_CHUNK_BYTES = 2**16


class KroneckerOperator:
    """The affine Galerkin stiffness operator in the mean eigenbasis,
    applied blockwise; `GalerkinSystem.operator` builds one per system.

    Built from the triple tensor `tt` and the FEM operator `fem_op`.  In
    the coordinates Y = (MQ)^T X (MQ) of (lam, Q) = `fem_op.mean_eigenbasis`
    the mass M (x) M is the identity and K_0 is the elementwise scaling by
    lam_i + lam_j (`fem_op.mean_values`).  A term along x_1,
    M (x) A_m + A (x) M_m, maps Y to Y A'_m + diag(lam) Y M'_m with the
    dense 1D factors M'_m = Q^T M_m Q and A'_m = Q^T A_m Q
    (`fem_op.spectral_factors`), that is
    [diag(lam) Y | Y] times the stacked (M'_m; A'_m).  Term m >= 1 enters
    the operator as G_m (x) K_m, G_m being a slice of the triple tensor
    (`raise_entries`) with nonzeros in few rows, so only the blocks Y[b]
    of the rows b it touches are gathered, multiplied, and added back
    through the nonzeros of G_m.  A term along x_2 acts on Y[b]^T as a term
    along x_1 acts on Y[b] (transpose the separable form), so the terms are
    split into two passes by axis.  Each pass is a list of chunks of at
    most `step` gathered rows: (rows, lead, runs, targets, scatter).
    `lead` holds the eigenvalues along the leading axis of each gathered
    slice, `runs` (start, end, right) for each stretch of the chunk that
    belongs to one term and one row class, `right` being their stacked
    factors (M'_m; A'_m), and `scatter` maps the chunk's products onto the
    chaos rows `targets`.

    Given `modes`, x_1 mean modes no term couples to the others
    (`fem.ParametricOperator.even_modes`), each slice keeps the columns
    Y[:, modes]: the terms along x_1 act on the kept rows and columns of
    their factors, those along x_2 reach them only through diag(lam).
    With `x2_classes` (`fem.ParametricOperator.x2_terms_flip_parity`),
    chaos row b of class c, its total degree over the dimensions along x_2
    mod 2, keeps in its slice only the x_2 modes of parity c: 0, 2, ...
    or 1, 3, ... plus one padded row for an odd count.  An x_2 term maps
    each class onto the other, through the factor rows of the source class
    and the columns of the target class.  The padded row has mean value 1,
    lead eigenvalue 0 and zero factors: it stays exactly zero.  A block is
    (P, N), N = h k for h x_2 slots and k x_1 modes; `coords` holds per
    class the flat position of each slot in the full (n, n) slice, -1 when
    padded.  By default every mode is kept, in one class.
    """

    def __init__(self, tt, fem_op, modes=None, x2_classes=False):
        if fem_op.nterms > tt.aset.max_dimension:
            raise ValueError(f"{fem_op.nterms} stiffness terms, but the "
                             f"set has {tt.aset.max_dimension} dimensions")
        self.P = P = tt.size
        self.lam = lam = fem_op.mean_eigenbasis[0]
        self.n = n = len(lam)
        self.modes = np.arange(n) if modes is None else np.asarray(modes)
        k = self.modes.size
        ncls = 2 if x2_classes else 1
        aset = tt.aset
        along_x2 = np.pad(fem_op.axes == 1,
                          (0, aset.max_dimension - fem_op.nterms))
        self.classes = (aset.exponents * along_x2[aset.support]).sum(
            axis=1) % ncls
        # the x_2 modes each class keeps, the padded slot as -1
        self.h = h = -(-n // ncls)
        self.x2 = np.arange(ncls * h).reshape(h, ncls).T
        self.x2[self.x2 >= n] = -1
        self.N = h * k
        self.coords = np.where(self.x2[:, :, None] < 0, -1,
                               self.x2[:, :, None] * n + self.modes).reshape(
            ncls, self.N)
        # K_0 per chaos row, or one (1, N) row for all in one class
        self.mean = np.append(fem_op.mean_values, 1.0)[
            self.coords[self.classes if x2_classes else [0]]]
        # the eigenvalues along the leading axis of the slices a pass
        # gathers: per class along x_2 for Y, along x_1 for Y^T
        lead_x1 = np.append(lam, 0.0)[self.x2][:, :, None]
        lead_x2 = lam[self.modes][:, None]
        F = fem_op.spectral_factors
        self.step = max(1, _CHUNK_BYTES // (8 * self.N))
        self.passes = ([], [])
        at = np.empty(P, dtype=int)
        for axis, chunks in enumerate(self.passes):
            pieces, width, right = [], 0, {}
            for m in np.flatnonzero(fem_op.axes[1:] == axis) + 1:
                # the term's stacked factors (M'_m; A'_m) per source class:
                # an x_2 term flips the class (with one class there is none
                # to flip), and index -1 of its padded factors is zero
                if axis:
                    Fm = np.pad(F[m], ((0, 0), (0, 1), (0, 1)))
                    right[m] = [Fm[:, self.x2[c][:, None],
                                   self.x2[c ^ (ncls - 1)]].reshape(2 * h, h)
                                for c in range(ncls)]
                else:
                    right[m] = [F[m][:, self.modes[:, None],
                                     self.modes].reshape(2 * k, k)] * ncls
                row, col, val = tt.raise_entries(m)
                # the term's gathered rows class by class
                touched = np.unique(self.classes[col] * P + col) % P
                at[touched] = np.arange(touched.size)
                pieces.append((touched, np.full(touched.size, m), row,
                               width + at[col], val))
                width += touched.size
            if not width:
                continue
            rows, term, srow, scol, sval = map(np.concatenate, zip(*pieces))
            cls = self.classes[rows]
            # the entries by chunk, target row and gathered row: each
            # chunk's scatter in CSR order, whose row pointers are the
            # first entries of its (chunk, target) runs
            chunk = scol // self.step
            order = np.lexsort((scol, srow, chunk))
            chunk, srow, scol, sval = (x[order] for x in
                                       (chunk, srow, scol, sval))
            first = np.flatnonzero(np.diff(chunk * self.P + srow, prepend=-1))
            ptr = np.append(first, srow.size)
            starts = range(0, width, self.step)
            split = np.searchsorted(
                first, np.searchsorted(chunk, np.arange(len(starts) + 1)))
            for lo, r0, r1 in zip(starts, split, split[1:]):
                hi = min(lo + self.step, width)
                lo_nz, hi_nz = ptr[r0], ptr[r1]
                targets = srow[first[r0:r1]]
                scatter = sp.csr_matrix(
                    (sval[lo_nz:hi_nz], scol[lo_nz:hi_nz] - lo,
                     ptr[r0:r1 + 1] - lo_nz),
                    shape=(targets.size, hi - lo))
                key = term[lo:hi] * ncls + cls[lo:hi]
                cuts = [0, *(np.flatnonzero(np.diff(key)) + 1), hi - lo]
                runs = [(a, b, right[term[lo + a]][cls[lo + a]])
                        for a, b in zip(cuts, cuts[1:])]
                lead = lead_x2 if axis else lead_x1[cls[lo:hi]]
                chunks.append((rows[lo:hi], lead, runs, targets, scatter))

    def apply(self, V, out=None):
        """Matrix-free product with a (P, N) coefficient block, written into
        `out` when given: a C-contiguous (P, N) block that does not overlap
        V.

        The block is applied as P slices Y[b] reshaped to (h, k), x_2 index
        first.  The mean term scales each slice elementwise by
        lam_i + lam_j; each fluctuation term adds one gathered product
        [diag(lam) Y | Y] (M'_m; A'_m) per touched row, and the terms along
        x_2 do the same on Y^T and add each chunk's products transposed.
        """
        V = np.asarray(V, dtype=float)
        if V.shape != (self.P, self.N):
            raise ValueError(f"block shape {V.shape}, expected "
                             f"{(self.P, self.N)}")
        P, h, k = self.P, self.h, self.modes.size
        Y = V.reshape(P, h, k)
        if out is None:
            out = np.empty((P, self.N))
        np.multiply(V, self.mean, out=out)
        O = out.reshape(P, h, k)
        for axis, chunks in enumerate(self.passes):
            # the gathered slices are (a, b): Y's for x_1 terms, Y^T's for
            # x_2 terms
            a, b = (k, h) if axis else (h, k)
            for rows, lead, runs, targets, scatter in chunks:
                G = np.empty((rows.size, a, 2 * b))
                G[..., b:] = Y[rows].transpose(0, 2, 1) if axis else Y[rows]
                np.multiply(lead, G[..., b:], out=G[..., :b])
                T = np.empty((rows.size, a, b))
                for start, end, right in runs:
                    np.matmul(G[start:end].reshape(-1, 2 * b), right,
                              out=T[start:end].reshape(-1, b))
                S = (scatter @ T.reshape(rows.size, -1)).reshape(-1, a, b)
                O[targets] += S.transpose(0, 2, 1) if axis else S
        return out

    def mean_solve(self, R, out=None):
        """The mean-based preconditioner: K_0^-1, a division by
        lam_i + lam_j in these coordinates, on a (P, N) block; written
        into `out` when given."""
        return np.divide(R, self.mean, out=out)


@dataclass
class PcgInfo:
    """How a `pcg_solve` ended.  `trace` holds the relative residual of
    every iterate, the start first; `product` is the operator's product
    with the returned solution, formed as B - R from CG's residual R, which
    the next solve of a warm-started sequence takes into its `start`."""

    converged: bool
    iterations: int
    relative_residual: float
    trace: np.ndarray
    product: np.ndarray


# A window direction's energy D . K D is trusted when it exceeds its
# largest possible roundoff, taken as this share of the largest of |B| and
# the window's products, times |D|: carried products agree with fresh ones
# to about 1e-15 |B|, and a difference of two nearly equal solves carries
# their error in full.
_WINDOW_NOISE = 1e-12
# Eigenvalues of the Jacobi-scaled window Gram below this share of the
# largest are dropped: their directions are numerically dependent on the
# others (a solve that took no CG step adds an increment inside the span).
_WINDOW_RCOND = 1e-8


def _project_start(window, B, X, R, work):
    """Move the start X, with residual R = B - K X, to the point of
    X + span(D) closest to the solution of K x = B in the energy norm, over
    the window's (D, K D) pairs; X and R are updated in place, `work` is a
    scratch block.

    The coefficients c solve the Gram system (D_i . K D_j) c = (D_i . R),
    Jacobi-scaled and by an eigendecomposition that drops numerically
    dependent directions.  R was formed from the carried product, so the
    right-hand side never subtracts two energies of nearly equal size.  A
    direction whose energy lies within its roundoff (an increment between
    solves that agree to the last bits, or exactly zero) is skipped; one
    of clearly negative energy means the operator is not positive
    definite or the pair's product is not its own, which CG would only see
    once it takes a step.
    """
    noise = _WINDOW_NOISE * max(np.linalg.norm(B),
                                *(np.linalg.norm(KD) for _, KD in window))
    pairs, energies = [], []
    for D, KD in window:
        energy, bound = np.vdot(D, KD), noise * np.linalg.norm(D)
        if energy < -bound:
            raise IndefiniteOperatorError(
                f"start window direction of energy {energy:.3e}")
        if energy > bound:
            pairs.append((D, KD))
            energies.append(energy)
    if not pairs:
        return
    G = np.diag(energies)
    for i, j in zip(*np.triu_indices(len(pairs), 1)):
        G[i, j] = G[j, i] = np.vdot(pairs[i][0], pairs[j][1])
    scale = 1.0 / np.sqrt(energies)
    w, Q = np.linalg.eigh(scale[:, None] * G * scale)
    keep = w > _WINDOW_RCOND * w[-1]
    g = scale * np.array([np.vdot(D, R) for D, _ in pairs])
    c = scale * (Q[:, keep] @ ((Q[:, keep].T @ g) / w[keep]))
    for (D, KD), ci in zip(pairs, c):
        X += np.multiply(ci, D, out=work)
        R -= np.multiply(ci, KD, out=work)


def pcg_solve(op: KroneckerOperator, rhs, tol=1e-10, maxiter=500,
              start=None, window=()):
    """Conjugate gradients on coefficient blocks, preconditioned by the
    operator's `mean_solve`.

    Stops when the preconditioner-norm residual sqrt(r.Pr) drops below tol
    times the same norm of the right-hand side (a fixed target, so warm
    starts genuinely help).  A warm start is a pair `start` = (x0, ax0) of
    the start and its product op.apply(x0): the `product` a previous solve
    returned in its PcgInfo is that product for its solution, so a sequence
    of warm-started solves costs exactly its CG iterations in products.
    `window` holds (D, op.apply(D)) pairs, for instance earlier solutions
    and their increments with their carried products: CG then starts from
    the point of x0 + span(D) of least energy-norm error (see
    `_project_start`), at no operator product.  Raises
    IndefiniteOperatorError on negative curvature, in CG or in the window.
    rhs, the start and the window are left unchanged.
    """
    B = np.asarray(rhs, dtype=float)
    if start is not None and any(np.shape(a) != B.shape for a in start):
        raise ValueError(f"start needs two blocks of the shape {B.shape} "
                         f"of the right-hand side")
    # W is the one scratch block: the preconditioned right-hand side, then
    # each product with a direction, step and preconditioned residual
    W = op.mean_solve(B)
    target = np.sqrt(max(np.vdot(B, W), 0.0))
    if target == 0.0:
        return np.zeros_like(B), PcgInfo(True, 0, 0.0, np.zeros(1),
                                         np.zeros_like(B))
    if start is None:
        X, R = np.zeros_like(B), B.copy()
    else:
        X = np.array(start[0], dtype=float)
        R = B - start[1]
    if window:
        _project_start(window, B, X, R, W)
    Pdir = op.mean_solve(R)
    rz = float(np.vdot(R, Pdir))
    trace = [np.sqrt(max(rz, 0.0)) / target]
    it = 0
    while trace[-1] > tol and it < maxiter:
        it += 1
        op.apply(Pdir, out=W)
        curv = float(np.vdot(Pdir, W))
        if curv <= 0.0:
            raise IndefiniteOperatorError(
                f"negative curvature at iteration {it}: direction energy "
                f"{curv:.3e}")
        alpha = rz / curv
        W *= alpha
        R -= W
        X += np.multiply(alpha, Pdir, out=W)
        op.mean_solve(R, out=W)
        rz_new = float(np.vdot(R, W))
        trace.append(np.sqrt(max(rz_new, 0.0)) / target)
        if trace[-1] > tol:
            Pdir *= rz_new / rz
            Pdir += W
        rz = rz_new
    product = np.subtract(B, R, out=R)
    return X, PcgInfo(bool(trace[-1] <= tol), it, trace[-1],
                      np.asarray(trace), product)


_RCOND_FLOOR = 1e-12
_NEWTON_TOL = 1e-12
_NEWTON_MAXITER = 50
_NEWTON_MAX_HALVINGS = 30


class DeltaFactor:
    """Dense inverse of the Galerkin multiplication operator of s.

    The operator is sum_a s_a G(a) (P x P, symmetric).  It is inverted once,
    and the inverse serves every spatial column as well as the eigenvalue
    extraction solve, each by one matmul.  The inverse also gives the exact
    1-norm reciprocal condition number, which guards against s(y) losing
    positivity, as that shows up here as near-singularity: an rcond below
    `_RCOND_FLOOR` raises NearSingularError.  The sweep carries (s,
    `inverse`) into the next sweep's normalization of the same column,
    whose chord steps use the inverse in place of a fresh LU solve per
    Newton step (see `newton_normalize`).

    numpy.linalg runs on the same BLAS as the matmuls of the sweep; scipy's
    wheel bundles a second one, whose thread pool would compete with
    numpy's for the cores (see README).

    Given the row `classes` of a `KroneckerOperator` on x_2 classes and
    an s that is zero on class 1, the matrix is block diagonal, and each
    class block is inverted apart: at a quarter of the cost, exactly zero
    off the blocks, which never mix the x_2 modes two classes hold.
    """

    def __init__(self, tt: TripleProductTensor, s, classes=None):
        self.matrix = tt.multiply_matrix(np.asarray(s, dtype=float))
        blocks = ([np.s_[:, :]] if classes is None else
                  [np.ix_(classes == c, classes == c) for c in (0, 1)])
        self.inverse = np.zeros_like(self.matrix)
        try:
            for block in blocks:
                self.inverse[block] = np.linalg.inv(self.matrix[block])
        except np.linalg.LinAlgError:
            self.rcond = 0.0
        else:
            self.rcond = float(1.0 / (np.linalg.norm(self.matrix, 1)
                                      * np.linalg.norm(self.inverse, 1)))
        if not np.isfinite(self.rcond) or self.rcond < _RCOND_FLOOR:
            raise NearSingularError(
                f"Galerkin multiplication operator has rcond {self.rcond:.3e}"
                "; the scalar expansion is near losing positivity")

    def solve(self, rhs, out=None):
        """Solve against a (P,) vector or (P, N) block, written into `out`
        when given."""
        return np.matmul(self.inverse, np.asarray(rhs, dtype=float), out=out)


def newton_normalize(tt: TripleProductTensor, b, start=None):
    """Chaos coefficients s of the pointwise norm of an expansion block V,
    given its Gram vector b = `tt.contract_gram`(V V^T) for V in the mean
    eigenbasis, where V V^T is the mass Gram matrix of its chaos rows.

    Solves F(s) = 0 where F_a = (s G(a) s) - b_a, starting from
    s = ||V|| e_0; the Jacobian is twice the Galerkin multiplication
    operator of s, which at the start is a positive multiple of the
    identity.  Damped Newton: the step is halved until the residual norm
    decreases (at most `_NEWTON_MAX_HALVINGS` times), and the iteration
    stops at residual `_NEWTON_TOL` ||V||^2 within `_NEWTON_MAXITER` steps.

    `start` = (s0, inverse) carries the root s0 of a nearby block, such as
    the same column's in the previous sweep, and the `DeltaFactor.inverse`
    of its multiplication operator.  The iteration then starts from c s0,
    with c = sqrt(b_0 / sum(s0^2)) since every root has sum(s^2) = b_0, and
    takes chord steps s -= (inverse / c) F(s) / 2: simplified Newton on the
    Jacobian at the start, one P x P matvec each and no factorization
    (Kelley, Iterative Methods for Linear and Nonlinear Equations, 1995).
    They converge linearly, at a rate set by how far the root lies from
    s0, and continue while each at least halves the residual; damped
    Newton takes over from there.  Chord and Newton steps share the budget.

    Returns (s, residual_history); the history starts with the residual at
    the initial guess and has one entry per chord or Newton step.
    """
    scale = b[0]  # = ||V||^2 since the zero-index slice is the identity
    if scale <= 0.0:
        raise ValueError("cannot normalize a zero block")
    if start is None:
        s = np.zeros(tt.size)
        s[0] = np.sqrt(scale)
    else:
        s0, inverse = start
        c = np.sqrt(scale / np.dot(s0, s0))
        s = c * s0
    F = tt.congruence(s, s) - b
    res = float(np.linalg.norm(F))
    history = [res]
    for _ in range(_NEWTON_MAXITER):
        if res <= _NEWTON_TOL * scale:
            return s, np.asarray(history)
        if start is not None:
            s_new = s - (0.5 / c) * (inverse @ F)
            F_new = tt.congruence(s_new, s_new) - b
            res_new = float(np.linalg.norm(F_new))
            if res_new <= 0.5 * res:
                s, F, res = s_new, F_new, res_new
                history.append(res)
                continue
            start = None
        J = 2.0 * tt.multiply_matrix(s)
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise NearSingularError(
                f"singular Newton Jacobian at residual {res:.3e}") from exc
        t = 1.0
        for _ in range(_NEWTON_MAX_HALVINGS):
            s_new = s + t * step
            F_new = tt.congruence(s_new, s_new) - b
            res_new = float(np.linalg.norm(F_new))
            if res_new < res:
                break
            t *= 0.5
        else:
            raise NearSingularError(
                f"Newton stalled: no decrease from residual {res:.3e} "
                f"after {_NEWTON_MAX_HALVINGS} halvings")
        s, F, res = s_new, F_new, res_new
        history.append(res)
    raise NearSingularError(
        f"Newton did not reach tolerance {_NEWTON_TOL:.1e} in "
        f"{_NEWTON_MAXITER} iterations "
        f"(last residual {res:.3e}, scale {scale:.3e})")


@dataclass
class GalerkinSystem:
    """Everything one discretized problem needs: index set, mesh, matrices.

    Bundles the parametric FEM operator with the chaos moment structures
    over one multi-index set, and the stiffness operators the solves on
    the system share: `operator` on every mode, and one per sector through
    `operator_on`, each built on first use.
    """

    aset: object
    fem_op: ParametricOperator
    tt: TripleProductTensor
    _sectors: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def mesh(self):
        return self.fem_op.mesh

    @property
    def P(self):
        return len(self.aset)

    @property
    def N(self):
        return self.fem_op.ndof

    @cached_property
    def operator(self):
        return KroneckerOperator(self.tt, self.fem_op)

    def operator_on(self, modes, x2_classes=False):
        """The stiffness operator on the x_1 mean modes `modes` (every mode
        when None) and with `x2_classes` (see `KroneckerOperator`), built
        on the first call for this sector and shared by every later one."""
        if modes is None and not x2_classes:
            return self.operator
        key = (None if modes is None else tuple(int(j) for j in modes),
               bool(x2_classes))
        if key not in self._sectors:
            self._sectors[key] = KroneckerOperator(self.tt, self.fem_op,
                                                   *key)
        return self._sectors[key]


def build_system(n, order=2, size=None, eps=None, varsigma=3.2,
                 max_terms=None):
    """Assemble a GalerkinSystem for the built-in coefficient family.

    Give either a target index-set cardinality (size) or a weight threshold
    (eps).  The stiffness family is truncated at the set's own maximal
    active dimension: dimensions the chaos basis never sees cannot enter
    the Galerkin operator.  max_terms additionally caps the number of
    coefficient fluctuation terms, turning later parameters inert.  A
    coefficient that is not uniformly positive over the active terms is
    rejected (see `build_parametric_operator`).
    """
    if (size is None) == (eps is None):
        raise ValueError("give exactly one of size or eps")
    if size is not None:
        aset = generate_index_set_by_size(size, varsigma=varsigma)
    else:
        aset = generate_index_set(eps, varsigma=varsigma)
    nterms = aset.max_dimension
    if max_terms is not None:
        if max_terms < 1:
            raise ValueError("max_terms must be positive")
        nterms = min(nterms, int(max_terms))
    mesh = build_mesh(n, order)
    fem_op = build_parametric_operator(mesh, varsigma=varsigma,
                                       nterms=nterms)
    return GalerkinSystem(aset, fem_op, build_triple_tensor(aset))
