"""Kronecker-structured solver kernels on the chaos-FEM product space.

A coefficient block for a vector-valued chaos expansion is stored as a dense
(P, N) array: row a holds the spatial coefficient vector of chaos index a.
Scalar expansions are plain (P,) arrays.  Nothing in this module ever forms
the PN x PN system matrix; the stiffness operator

    sum_m  (raise matrix m)  (x)  (stiffness term m)

is applied blockwise, and so is the mean-based preconditioner.  Both run on
the 1D factors of the separable stiffness terms (see `fem`): each spatial
block is an (n, n) array acted on by batched small matmuls, term m only
touches the chaos rows its raise matrix couples, and the mean term is
inverted by fast diagonalization.  The assembled 2D stiffness matrices are
left to starting guesses, pointwise solves and tests.  The tensor norm
pairs the stochastic blocks with the spatial mass matrix:
||V||^2 = sum_a V[a] . M V[a].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .fem import ParametricOperator, build_mesh, build_parametric_operator
from .legendre import TripleProductTensor, build_moment_matrices, \
    build_triple_tensor
from .multiindex import generate_index_set, generate_index_set_by_size

__all__ = [
    "IndefiniteOperatorError",
    "NearSingularError",
    "SeparableTerms",
    "KroneckerOperator",
    "MeanPreconditioner",
    "PcgInfo",
    "pcg_solve",
    "tensor_norm",
    "tensor_dot",
    "weighted_gram",
    "DeltaFactor",
    "delta_solve",
    "newton_normalize",
    "GalerkinSystem",
    "build_system",
]


class IndefiniteOperatorError(RuntimeError):
    """Negative curvature met in CG: the (shifted) operator is indefinite."""


class NearSingularError(RuntimeError):
    """Galerkin multiplication operator numerically singular: the scalar
    normalization expansion is losing pointwise positivity."""


def tensor_dot(V, W, M):
    """Mass-weighted inner product of two (P, N) coefficient blocks."""
    return float(np.sum(V * (M @ W.T).T))


def tensor_norm(V, M):
    """Mass-weighted norm of a (P, N) coefficient block."""
    return float(np.sqrt(max(np.sum(V * (M @ V.T).T), 0.0)))


# KroneckerOperator.apply gathers at most this many bytes of (n, n) slices
# at a time: its temporaries beside the output and one (P, n, 2n) buffer
# stay a few times that size, and in cache.
_CHUNK_BYTES = 2**16


class SeparableTerms:
    """The affine stiffness terms in separable form, with the chaos rows
    each one touches; built once per system and shared by its operators.

    Term m >= 1 enters the operator as G_m (x) K_m.  G_m has nonzeros in
    few rows, so only the blocks V[b] of the rows b it touches are
    gathered, multiplied by the term's right factor [M_m | A_m] (see
    `fem`), and added back through the nonzeros of G_m.  A term along x_2
    acts on V[b]^T as a term along x_1 acts on V[b] (transpose the
    separable form), so the terms are split into two passes by axis.  Each
    pass is a list of chunks of at most `step` gathered rows:
    (rows, runs, targets, scatter).  `runs` holds (start, end, right) for
    the stretch of the chunk that belongs to one term, `right` being that
    term's [M_m | A_m]: an (n, 2n) view of its stacked (M_m; A_m),
    transposed, as the factors are symmetric.  `scatter` maps the chunk's
    products onto the chaos rows `targets`.
    """

    def __init__(self, gmats, fem_op):
        if len(gmats) != fem_op.nterms + 1:
            raise ValueError("need one spatial term per raise matrix")
        self.P = P = gmats[0].shape[0]
        factors = fem_op.factors
        self.n = n = factors.shape[-1]
        self.M, self.A = factors[0]
        self.step = max(1, _CHUNK_BYTES // (8 * n * n))
        self.passes = ([], [])
        for axis, chunks in enumerate(self.passes):
            pieces, width = [], 0
            for m in np.flatnonzero(fem_op.axes[1:] == axis) + 1:
                G = sp.coo_matrix(gmats[m])
                touched = np.unique(G.col)
                pieces.append((touched, np.full(touched.size, m), G.row,
                               width + np.searchsorted(touched, G.col),
                               G.data))
                width += touched.size
            if not width:
                continue
            rows, term, srow, scol, sval = map(np.concatenate, zip(*pieces))
            for lo in range(0, width, self.step):
                hi = min(lo + self.step, width)
                nz = (scol >= lo) & (scol < hi)
                targets, local = np.unique(srow[nz], return_inverse=True)
                scatter = sp.csr_matrix((sval[nz], (local, scol[nz] - lo)),
                                        shape=(targets.size, hi - lo))
                cuts = [0, *(np.flatnonzero(np.diff(term[lo:hi])) + 1),
                        hi - lo]
                runs = [(a, b, factors[term[lo + a]].reshape(2 * n, n).T)
                        for a, b in zip(cuts, cuts[1:])]
                chunks.append((rows[lo:hi], runs, targets, scatter))


class KroneckerOperator:
    """Blockwise application of the affine Galerkin stiffness operator.

    Parameters
    ----------
    terms : SeparableTerms of the system (raise-matrix rows, 1D factors).
    shift : optional spectral shift; the operator becomes
        (stiffness part) - shift * (identity (x) mass), the mass being
        M (x) M.  Shifted operators may be indefinite; pcg_solve reports
        that instead of silently iterating.

    A block V is applied as P slices X = V[b] reshaped to (n, n), x_2
    index first, on which B (x) C acts as B X C^T (= B X C: every factor
    is symmetric).  A term along x_1 is M (x) A_m + A (x) M_m, so
    X [M_m | A_m] is formed for every term and touched row, the chaos rows
    are combined, and A and M are applied once per slice at the end; terms
    along x_2 do the same on X^T.
    """

    def __init__(self, terms, shift=0.0):
        self.terms = terms
        self.shift = float(shift)
        self.P = terms.P
        self.N = terms.n * terms.n
        # mean term and shift: A X M + M X (A - shift M)
        self.right0 = np.hstack([terms.M, terms.A - self.shift * terms.M])

    def apply(self, V):
        """Matrix-free product with a (P, N) coefficient block."""
        V = np.asarray(V, dtype=float)
        if V.shape != (self.P, self.N):
            raise ValueError(f"block shape {V.shape}, expected "
                             f"{(self.P, self.N)}")
        t, P, n, step = self.terms, self.P, self.terms.n, self.terms.step
        X = V.reshape(P, n, n)
        out = np.empty_like(X)
        E = np.empty((P, n, 2 * n))
        for axis, chunks in enumerate(t.passes):
            if axis == 0:
                np.matmul(X.reshape(-1, n), self.right0,
                          out=E.reshape(-1, 2 * n))
            elif chunks:
                E.fill(0.0)
            else:
                break
            for rows, runs, targets, scatter in chunks:
                Xg = X[rows]
                if axis:
                    Xg = np.ascontiguousarray(Xg.transpose(0, 2, 1))
                T = np.empty((rows.size, n, 2 * n))
                for start, end, right in runs:
                    np.matmul(Xg[start:end].reshape(-1, n), right,
                              out=T[start:end].reshape(-1, 2 * n))
                E.reshape(P, -1)[targets] += scatter @ T.reshape(
                    rows.size, -1)
            for lo in range(0, P, step):
                part = E[lo:lo + step]
                L = np.matmul(t.A, part[..., :n])
                L += np.matmul(t.M, part[..., n:])
                if axis:
                    out[lo:lo + step] += L.transpose(0, 2, 1)
                else:
                    out[lo:lo + step] = L
        return out.reshape(P, self.N)


class MeanPreconditioner:
    """Blockwise inverse of the mean term K_0 = M (x) A + A (x) M by fast
    diagonalization (Lynch, Rice & Thomas 1964).

    With A Q = M Q diag(lam) and Q^T M Q = I, K_0 = (Q (x) Q)^-T
    (I (x) lam + lam (x) I) (Q (x) Q)^-1, so each slice R of a block maps
    to Q [(Q^T R Q) / (lam_i + lam_j)] Q^T.
    """

    def __init__(self, mass_1d, stiffness_1d):
        lam, self.Q = scipy.linalg.eigh(stiffness_1d, mass_1d)
        self.denom = lam[:, None] + lam[None, :]

    def apply(self, R):
        Q = self.Q
        n = Q.shape[0]
        Y = (R.reshape(-1, n) @ Q).reshape(-1, n, n)
        Z = np.matmul(Q.T, Y)
        Z /= self.denom
        np.matmul(Z.reshape(-1, n), Q.T, out=Y.reshape(-1, n))
        return np.matmul(Q, Y, out=Z).reshape(R.shape)


@dataclass
class PcgInfo:
    converged: bool
    iterations: int
    relative_residual: float
    trace: np.ndarray


def pcg_solve(op: KroneckerOperator, rhs, precond, tol=1e-10, maxiter=500,
              x0=None):
    """Preconditioned conjugate gradients on coefficient blocks.

    Stops when the preconditioner-norm residual sqrt(r.Pr) drops below tol
    times the same norm of the right-hand side (a fixed target, so warm
    starts genuinely help).  Raises IndefiniteOperatorError on negative
    curvature, which signals a bad spectral shift.
    """
    B = np.asarray(rhs, dtype=float)
    target = np.sqrt(max(np.sum(B * precond.apply(B)), 0.0))
    if target == 0.0:
        return np.zeros_like(B), PcgInfo(True, 0, 0.0, np.zeros(1))
    X = np.zeros_like(B) if x0 is None else np.array(x0, dtype=float)
    R = B - op.apply(X) if x0 is not None else B.copy()
    Z = precond.apply(R)
    rz = float(np.sum(R * Z))
    Pdir = Z.copy()
    trace = [np.sqrt(max(rz, 0.0)) / target]
    if trace[0] <= tol:
        return X, PcgInfo(True, 0, trace[0], np.asarray(trace))
    for it in range(1, maxiter + 1):
        Ap = op.apply(Pdir)
        curv = float(np.sum(Pdir * Ap))
        if curv <= 0.0:
            raise IndefiniteOperatorError(
                f"negative curvature at iteration {it}: direction energy "
                f"{curv:.3e}")
        alpha = rz / curv
        X += alpha * Pdir
        R -= alpha * Ap
        Z = precond.apply(R)
        rz_new = float(np.sum(R * Z))
        rel = np.sqrt(max(rz_new, 0.0)) / target
        trace.append(rel)
        if rel <= tol:
            return X, PcgInfo(True, it, rel, np.asarray(trace))
        Pdir = Z + (rz_new / rz) * Pdir
        rz = rz_new
    return X, PcgInfo(False, maxiter, trace[-1], np.asarray(trace))


def weighted_gram(tt: TripleProductTensor, V, W, M):
    """Chaos coefficients of the mass-weighted product of two expansions.

    Component a equals sum_bc E[Lam_a Lam_b Lam_c] * (V[b] . M W[c]): the
    (P, P) spatial Gram matrix is formed once, then contracted against the
    triple tensor row by row.
    """
    H = V @ (M @ W.T)
    return tt.contract_gram(H)


class DeltaFactor:
    """Dense factorization of the Galerkin multiplication operator of s.

    The operator is sum_a s_a G(a) (P x P, symmetric); one LU factorization
    serves every spatial column as well as the eigenvalue extraction solve.
    A reciprocal-condition estimate guards against s(y) losing positivity,
    which manifests as near-singularity here.
    """

    def __init__(self, tt: TripleProductTensor, s, cond_limit=1e12):
        self.matrix = tt.multiply_matrix(np.asarray(s, dtype=float))
        anorm = np.linalg.norm(self.matrix, 1)
        self.lu, self.piv = scipy.linalg.lu_factor(self.matrix)
        gecon = scipy.linalg.get_lapack_funcs(("gecon",), (self.matrix,))[0]
        rcond, _ = gecon(self.lu, anorm, norm="1")
        self.rcond = float(rcond)
        if not np.isfinite(self.rcond) or self.rcond < 1.0 / cond_limit:
            raise NearSingularError(
                f"Galerkin multiplication operator has rcond {self.rcond:.3e}"
                "; the scalar expansion is near losing positivity")

    def solve(self, rhs):
        """Solve against a (P,) vector or (P, N) block."""
        return scipy.linalg.lu_solve((self.lu, self.piv),
                                     np.asarray(rhs, dtype=float))


def delta_solve(tt, s, rhs, cond_limit=1e12):
    """One-shot DeltaFactor solve (factor + apply)."""
    return DeltaFactor(tt, s, cond_limit).solve(rhs)


def newton_normalize(tt: TripleProductTensor, V, M, tol=1e-12, maxiter=50,
                     max_halvings=30):
    """Chaos coefficients s of the pointwise norm of an expansion block.

    Solves F(s) = 0 where F_a = (s G(a) s) - (V . (G(a) x M) V), starting
    from s = ||V|| e_0; the Jacobian is twice the Galerkin multiplication
    operator of s, which at the start is a positive multiple of the
    identity.  Damped Newton: the step is halved until the residual norm
    decreases.

    Returns (s, residual_history); the history starts with the residual at
    the initial guess.
    """
    b = weighted_gram(tt, V, V, M)
    scale = b[0]  # = ||V||^2 since the zero-index slice is the identity
    if scale <= 0.0:
        raise ValueError("cannot normalize a zero block")
    s = np.zeros(tt.size)
    s[0] = np.sqrt(scale)
    F = tt.congruence(s, s) - b
    res = float(np.linalg.norm(F))
    history = [res]
    for _ in range(maxiter):
        if res <= tol * scale:
            return s, np.asarray(history)
        J = 2.0 * tt.multiply_matrix(s)
        try:
            step = scipy.linalg.solve(J, -F, assume_a="sym")
        except scipy.linalg.LinAlgError as exc:
            raise NearSingularError(
                f"singular Newton Jacobian at residual {res:.3e}") from exc
        t = 1.0
        for _ in range(max_halvings):
            s_new = s + t * step
            F_new = tt.congruence(s_new, s_new) - b
            res_new = float(np.linalg.norm(F_new))
            if res_new < res:
                break
            t *= 0.5
        else:
            raise NearSingularError(
                f"Newton stalled: no decrease from residual {res:.3e} "
                f"after {max_halvings} halvings")
        s, F, res = s_new, F_new, res_new
        history.append(res)
    raise NearSingularError(
        f"Newton did not reach tolerance {tol:.1e} in {maxiter} iterations "
        f"(last residual {res:.3e}, scale {scale:.3e})")


@dataclass
class GalerkinSystem:
    """Everything one discretized problem needs: index set, mesh, matrices.

    Bundles the parametric FEM operator with the chaos moment structures
    over one multi-index set, plus the cached separable terms and
    mean-based preconditioner.
    """

    aset: object
    fem_op: ParametricOperator
    gmats: list
    tt: TripleProductTensor
    _terms: SeparableTerms = field(default=None, repr=False)
    _mean_prec: MeanPreconditioner = field(default=None, repr=False)

    @property
    def mesh(self):
        return self.fem_op.mesh

    @property
    def mass(self):
        return self.fem_op.mass

    @property
    def P(self):
        return len(self.aset)

    @property
    def N(self):
        return self.fem_op.ndof

    @property
    def terms(self):
        if self._terms is None:
            self._terms = SeparableTerms(self.gmats, self.fem_op)
        return self._terms

    def operator(self, shift=0.0):
        return KroneckerOperator(self.terms, shift=shift)

    def mean_preconditioner(self):
        if self._mean_prec is None:
            self._mean_prec = MeanPreconditioner(*self.fem_op.factors[0])
        return self._mean_prec

    def mass_apply(self, V):
        return (self.mass @ V.T).T

    def norm(self, V):
        return tensor_norm(V, self.mass)

    def gram(self, V, W):
        return weighted_gram(self.tt, V, W, self.mass)


def build_system(n, order=2, size=None, eps=None, varsigma=3.2, nquad=None,
                 max_terms=None):
    """Assemble a GalerkinSystem for the built-in coefficient family.

    Give either a target index-set cardinality (size) or a weight threshold
    (eps).  The stiffness family is truncated at the set's own maximal
    active dimension: dimensions the chaos basis never sees cannot enter
    the Galerkin operator.  max_terms additionally caps the number of
    coefficient fluctuation terms, turning later parameters inert.
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
                                       nterms=nterms, nquad=nquad)
    gmats = build_moment_matrices(aset)[:nterms + 1]
    tt = build_triple_tensor(aset)
    return GalerkinSystem(aset, fem_op, gmats, tt)
