"""Normalized Legendre chaos basis and its moment tensors.

Univariate basis: Legendre polynomials on [-1, 1], normalized so that
E[Lt_p^2] = 1 under the uniform probability measure dx/2 (Lt_p = sqrt(2p+1)
L_p with the standard L_p(1) = 1 convention).  Multivariate basis functions
are finite tensor products indexed by sparse multi-indices.

Two moment contractions drive all Galerkin products:

* the triple product tensor with entries E[Lam_a Lam_b Lam_c], factorizing
  into univariate triples that vanish unless each coordinate's degrees pass
  the parity and triangle conditions; built by a vectorized search over
  all triples (see `build_triple_tensor`).
* raise matrices, one per dimension m >= 1, with entries
  E[y_m Lam_a Lam_b]: nonzero only when a and b agree except in coordinate m
  where they differ by one, with univariate value (p+1)/sqrt((2p+1)(2p+3));
  the m = 0 matrix is the identity by convention.  Since Lam_{e_m} =
  sqrt(3) y_m, they are read off the triple tensor as its slices at the
  first-order indices e_m, divided by sqrt(3).

Univariate triple products are evaluated by exact-degree Gauss quadrature
(cached per degree sum) rather than factorial closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multiindex import MultiIndexSet

__all__ = [
    "eval_univariate_all",
    "gauss_rule",
    "univariate_triple",
    "build_triple_tensor",
    "TripleProductTensor",
    "basis_matrix",
    "evaluate_expansion",
]

_gauss_cache = {}
_triple_cache = {}


def gauss_rule(npts):
    """Gauss-Legendre nodes and probability weights (summing to 1) on [-1,1]."""
    if npts not in _gauss_cache:
        x, w = np.polynomial.legendre.leggauss(npts)
        _gauss_cache[npts] = (x, w / 2.0)
    return _gauss_cache[npts]


def eval_univariate_all(pmax, x):
    """Normalized Legendre values for all degrees 0..pmax at points x.

    Returns an array of shape (pmax+1,) + x.shape via the three-term
    recurrence (p+1) L_{p+1} = (2p+1) x L_p - p L_{p-1}, scaled at the end
    by sqrt(2p+1).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((pmax + 1,) + x.shape)
    out[0] = 1.0
    if pmax >= 1:
        out[1] = x
    for p in range(1, pmax):
        out[p + 1] = ((2 * p + 1) * x * out[p] - p * out[p - 1]) / (p + 1)
    scale = np.sqrt(2 * np.arange(pmax + 1) + 1.0)
    return out * scale.reshape((-1,) + (1,) * x.ndim)


def univariate_triple(a, b, c):
    """E[Lt_a Lt_b Lt_c]: exactly zero unless the degrees have even sum and
    satisfy the triangle inequality; otherwise by exact Gauss quadrature."""
    a, b, c = sorted((int(a), int(b), int(c)))
    if (a + b + c) % 2 == 1 or a + b < c:
        return 0.0
    if a == 0:
        return 1.0  # orthonormality, exactly rather than by quadrature
    key = (a, b, c)
    if key not in _triple_cache:
        x, w = gauss_rule((a + b + c) // 2 + 1)
        vals = eval_univariate_all(c, x)
        _triple_cache[key] = float(np.sum(w * vals[a] * vals[b] * vals[c]))
    return _triple_cache[key]


@dataclass
class TripleProductTensor:
    """Flat sparse storage of all triples E[Lam_a Lam_b Lam_c] over a set.

    Entries are stored fully expanded over the last two slots (for every
    first-slot index a, every nonzero (b, c) pair appears once), sorted by
    (a, b, c), so the row-wise contractions used by the solvers are single
    vectorized passes and the slice of one first-slot index is contiguous.
    """

    aset: MultiIndexSet
    ia: np.ndarray
    ib: np.ndarray
    ic: np.ndarray
    values: np.ndarray

    @property
    def size(self):
        return len(self.aset)

    def contract_gram(self, H):
        """Row-wise Frobenius products {sum_bc c_abc H_bc}_a for dense H."""
        return np.bincount(self.ia, weights=self.values * H[self.ib, self.ic],
                           minlength=self.size)

    def congruence(self, s, t):
        """Vector {sum_bc c_abc s_b t_c}_a for coefficient vectors s, t."""
        return np.bincount(self.ia, weights=self.values * s[self.ib] * t[self.ic],
                           minlength=self.size)

    def raise_entries(self, m):
        """Row-sorted (rows, cols, values) of raise matrix m >= 1."""
        a = self.aset.position(((m, 1),))
        lo, hi = np.searchsorted(self.ia, [a, a + 1])
        return (self.ib[lo:hi], self.ic[lo:hi],
                self.values[lo:hi] / np.sqrt(3.0))

    def multiply_matrix(self, s):
        """Dense Galerkin multiplication operator sum_a s_a * slice(a)."""
        P = self.size
        D = np.zeros((P, P))
        np.add.at(D, (self.ib, self.ic), self.values * s[self.ia])
        return D


# Candidate (a, b, c) triples are formed and filtered in chunks of about
# this many, so memory stays bounded on low-dimensional sets, where one row
# a can pair up nearly all P**2 (b, c).
_CHUNK_TRIPLES = 2**20


def _equal_key_pairs(K):
    """Chunks (a, b, c) of every ordered pair (b, c) with K[a, b] == K[a, c].

    Each row of K is sorted; each member of a run of equal keys is repeated
    once per member of its run and paired with each of them in turn.
    """
    P = K.shape[0]
    order = np.argsort(K, axis=1, kind="stable").ravel()
    key = np.take_along_axis(K, order.reshape(P, P), axis=1).ravel()
    first = np.ones(P * P, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    first[::P] = True
    run = np.cumsum(first) - 1
    start = np.flatnonzero(first)
    reps = np.diff(np.append(start, P * P))[run]
    total = np.cumsum(reps.reshape(P, P).sum(axis=1))
    cuts = np.searchsorted(total, np.arange(_CHUNK_TRIPLES, total[-1],
                                            _CHUNK_TRIPLES), side="right")
    cuts = np.unique(np.concatenate([[0], cuts, [P]]))
    for lo, hi in zip(cuts[:-1] * P, cuts[1:] * P):
        n = reps[lo:hi]
        src = np.repeat(np.arange(lo, hi), n)
        offset = np.arange(src.size) - np.repeat(np.cumsum(n) - n, n)
        yield src // P, order[src], order[start[run[src]] + offset]


def build_triple_tensor(aset: MultiIndexSet) -> TripleProductTensor:
    """All nonzero triples over the index set, vectorized over all triples.

    An entry (a, b, c) is nonzero only if b and c agree outside supp(a)
    (there a_m = 0 forces b_m = c_m) and every coordinate passes the
    triangle and parity conditions.  Rows are hashed with the coordinates
    of supp(a) removed; pairs in one hash group of row a are the
    candidates, which the conditions on supp(a) then filter.  The value is
    the product of univariate triples over the union support in ascending
    coordinate order, each distinct univariate triple evaluated once.  A
    hash collision would leave a pair that differs outside supp(a), whose
    factor univariate_triple(0, p, q) with p != q is exactly zero: such
    entries are dropped.
    """
    P, M = len(aset), aset.max_dimension
    # dense exponents plus a zero column M; supports padded with M
    D = np.zeros((P, M + 1), dtype=np.int64)
    S = np.full((P, max(1, max(len(a) for a in aset.indices))), M)
    for i, alpha in enumerate(aset.indices):
        for k, (d, e) in enumerate(alpha):
            D[i, d - 1] = e
            S[i, k] = d - 1
    # fixed multipliers below 2**40: sums of a few small exponents times
    # them cannot overflow
    r = np.random.default_rng(0).integers(1, 2**40, size=M + 1)
    r[M] = 0
    # K[a, b]: hash of row b without the coordinates of supp(a)
    K = np.tile(D @ r, (P, 1))
    for k in range(S.shape[1]):
        K -= D[:, S[:, k]].T * r[S[:, k]][:, None]
    parts = []
    for ia, ib, ic in _equal_key_pairs(K):
        ok = np.ones(ia.size, dtype=bool)
        for k in range(S.shape[1]):
            m = S[ia, k]
            pa, pb, pc = D[ia, m], D[ib, m], D[ic, m]
            ok &= (np.abs(pb - pc) <= pa) & (pa <= pb + pc) \
                & ((pa + pb + pc) % 2 == 0)
        parts.append(np.stack([ia[ok], ib[ok], ic[ok]]))
    ia, ib, ic = np.concatenate(parts, axis=1)
    # union supports in ascending order, repeats replaced by the zero column
    dims = np.sort(np.concatenate([S[ia], S[ib], S[ic]], axis=1), axis=1)
    dims[:, 1:][dims[:, 1:] == dims[:, :-1]] = M
    base = int(D.max()) + 1
    codes = (D[ia[:, None], dims] * base + D[ib[:, None], dims]) * base \
        + D[ic[:, None], dims]
    uniq, inv = np.unique(codes, return_inverse=True)
    table = np.array([univariate_triple(u // base**2, u // base % base,
                                        u % base) for u in uniq])
    factors = table[inv.reshape(codes.shape)]
    values = np.ones(ia.size)
    for k in range(factors.shape[1]):
        values *= factors[:, k]
    keep = values != 0.0
    ia, ib, ic, values = ia[keep], ib[keep], ic[keep], values[keep]
    o = np.lexsort((ic, ib, ia))
    return TripleProductTensor(aset, ia[o], ib[o], ic[o], values[o])


def basis_matrix(aset: MultiIndexSet, Y):
    """Values Lam_a(y) for all members at parameter points.

    Parameters
    ----------
    Y : array_like, shape (npts, d) with d >= max_dimension, or (d,).

    Returns
    -------
    ndarray (npts, P); column 0 is identically 1.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    mdim = aset.max_dimension
    if Y.shape[1] < mdim:
        raise ValueError(f"points have {Y.shape[1]} dims, set needs {mdim}")
    degs = aset.max_degrees
    # per active dimension: univariate values up to that dimension's max degree
    univ = {}
    for m in range(1, mdim + 1):
        if degs[m - 1] > 0:
            univ[m] = eval_univariate_all(degs[m - 1], Y[:, m - 1])
    out = np.ones((Y.shape[0], len(aset)))
    for j, alpha in enumerate(aset.indices):
        for m, p in alpha:
            out[:, j] *= univ[m][p]
    return out


def evaluate_expansion(coeffs, aset: MultiIndexSet, Y):
    """Evaluate a chaos expansion at parameter points.

    coeffs has shape (P,) for scalar expansions or (P, N) for spatial-vector
    expansions; the result has shape (npts,) or (npts, N), squeezed to the
    point when a single y is given.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] != len(aset):
        raise ValueError("coefficient block does not match index set size")
    single = np.asarray(Y).ndim == 1
    vals = basis_matrix(aset, Y) @ coeffs
    return vals[0] if single else vals
