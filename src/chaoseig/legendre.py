"""Normalized Legendre chaos basis and its moment tensors.

Univariate basis: Legendre polynomials on [-1, 1], normalized so that
E[Lt_p^2] = 1 under the uniform probability measure dx/2 (Lt_p = sqrt(2p+1)
L_p with the standard L_p(1) = 1 convention).  Multivariate basis functions
are finite tensor products indexed by sparse multi-indices.

Two moment contractions drive all Galerkin products:

* the triple product tensor with entries E[Lam_a Lam_b Lam_c], factorizing
  into univariate triples that vanish unless each coordinate's degrees pass
  the parity and triangle conditions; on a downward-closed set its entries
  are the triangles of the graph of splits x + y of the members, found in
  time that follows their number (see `build_triple_tensor`).
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

import functools
import itertools
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


def _splits(aset):
    """Positions (x, y, s) of all splits x + y = s of each member.

    Both parts are reached from s by lowering its support one step at a
    time, last column first, so that the earlier columns keep their places
    (`MultiIndexSet.exponents` and `lowered`, whose padding has exponent 0
    and is never lowered).
    """
    E, down = aset.exponents, aset.lowered
    P, L = E.shape
    # the split x of s: the mixed-radix digits of its rank among the splits
    counts = np.prod(E + 1, axis=1)
    x = y = s = np.repeat(np.arange(P), counts)
    rank = np.arange(s.size) - np.repeat(np.cumsum(counts) - counts, counts)
    for k in reversed(range(L)):
        e = E[s, k]
        xk, rank = rank % (e + 1), rank // (e + 1)
        for step in range(int(E[:, k].max())):
            y = np.where(xk > step, down[y, k], y)
            x = np.where(e - xk > step, down[x, k], x)
    return x, y, s


def build_triple_tensor(aset: MultiIndexSet) -> TripleProductTensor:
    """All nonzero triples over a downward-closed index set.

    Each coordinate of a nonzero entry (a, b, c) passes the triangle and
    parity conditions, so a = y + z, b = x + z and c = x + y for
    nonnegative x, y, z, which downward closedness makes members.  The
    entries are thus exactly the ordered triangles (x, y, z) of the graph
    with an edge x - y for each split x + y of a member, and none is
    filtered: each edge finds its triangles among the neighbours z of its
    endpoint of lower degree.  The value is the product of univariate
    triples over the union support in ascending coordinate order, read
    from one table of `univariate_triple`; outside supp(a) each factor is
    univariate_triple(0, p, p) = 1, so only supp(a) is multiplied.
    """
    S, E = aset.support, aset.exponents
    x, y, s = _splits(aset)
    P = len(aset)
    # edges sorted by (x, y): the neighbours of each member are contiguous
    code = x * P + y
    o = np.argsort(code)
    code, x, y, s = code[o], x[o], y[o], s[o]
    deg = np.bincount(x, minlength=P)
    swap = deg[x] > deg[y]
    u, w = np.where(swap, y, x), np.where(swap, x, y)
    n = deg[u]
    edge = np.repeat(np.arange(code.size), n)
    # edge nb = (u, z) for each neighbour z of u; (w, z) closes the triangle
    nb = np.repeat(np.cumsum(deg)[u] - deg[u] - np.cumsum(n) + n, n) \
        + np.arange(edge.size)
    want = w[edge] * P + y[nb]
    at = np.minimum(np.searchsorted(code, want), code.size - 1)
    hit = code[at] == want
    edge, near, far = edge[hit], s[nb[hit]], s[at[hit]]
    # near = u + z and far = w + z, with a = y + z and b = x + z
    ia = np.where(swap[edge], near, far)
    ib = np.where(swap[edge], far, near)
    ic = s[edge]
    d = int(E.max()) + 1
    table = np.array([univariate_triple(*t)
                      for t in itertools.product(range(d), repeat=3)])
    # exponents of b and c at the support dimensions of a, ascending
    Sa = S[ia][:, :, None]
    eb, ec = ((E[r][:, None] * (S[r][:, None] == Sa)).sum(axis=2)
              for r in (ib, ic))
    values = functools.reduce(np.multiply, table[(E[ia] * d + eb) * d + ec].T)
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
    # per active dimension: univariate values up to that dimension's max degree
    univ = {m: eval_univariate_all(p, Y[:, m - 1])
            for m, p in enumerate(aset.max_degrees, 1) if p > 0}
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
