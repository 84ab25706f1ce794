"""Independent numeric oracles shared across test modules.

These deliberately avoid the package's own evaluation routines: Legendre
values come from numpy.polynomial.legendre.legval, eigenpairs from dense
scipy eigensolvers, Kronecker applications from explicit materialization.
The two construction oracles at the end are slow reference algorithms
instead: an index set found by squaring eps until it overshoots, and a
triple tensor found by scanning every index pair.
"""

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from chaoseig.legendre import univariate_triple
from chaoseig.multiindex import dense_exponents, generate_index_set


def legval_normalized(p, x):
    """Normalized Legendre via numpy's legval (independent evaluation)."""
    c = np.zeros(p + 1)
    c[p] = 1.0
    return np.polynomial.legendre.legval(np.asarray(x, dtype=float), c) \
        * np.sqrt(2.0 * p + 1.0)


def univariate_raise(p):
    """E[x Lt_p Lt_{p+1}] in closed form: (p+1)/sqrt((2p+1)(2p+3))."""
    return (p + 1) / np.sqrt((2.0 * p + 1.0) * (2.0 * p + 3.0))


def tensor_grid(aset, extra_degree=0):
    """Tensor Gauss grid exact for triple products over the set's dims.

    Returns (points, weights, B) where points has shape (npts, M), weights
    sum to one, and B[j] holds the values of basis function j at all points.
    """
    degs = aset.max_degrees
    mdim = len(degs)
    per_dim = []
    for d in degs:
        # integrands are products of <= 3 univariate factors of degree <= d
        n = (3 * int(d) + extra_degree) // 2 + 1
        x, w = np.polynomial.legendre.leggauss(n)
        per_dim.append((x, w / 2.0))
    if mdim == 0:
        pts = np.zeros((1, 0))
        wts = np.ones(1)
    else:
        grids = list(itertools.product(*[range(len(x)) for x, _ in per_dim]))
        pts = np.array([[per_dim[m][0][g[m]] for m in range(mdim)]
                        for g in grids])
        wts = np.array([np.prod([per_dim[m][1][g[m]] for m in range(mdim)])
                        for g in grids])
    B = np.ones((len(aset), len(wts)))
    for j, alpha in enumerate(aset.indices):
        for m, p in alpha:
            B[j] *= legval_normalized(p, pts[:, m - 1])
    return pts, wts, B


def triple_tensor_dense(aset):
    """Dense E[Lam_a Lam_b Lam_c] for every triple, by tensor quadrature."""
    _, w, B = tensor_grid(aset)
    return np.einsum("ap,bp,cp,p->abc", B, B, B, w)


def raise_matrices_dense(aset):
    """Dense E[y_m Lam_a Lam_b] for m = 1..M, by tensor quadrature."""
    pts, w, B = tensor_grid(aset, extra_degree=1)
    out = []
    for m in range(1, aset.max_dimension + 1):
        out.append(np.einsum("ap,bp,p->ab", B, B, w * pts[:, m - 1]))
    return out


def materialize_kronecker(gmats, kmats, shift=0.0, mass=None):
    """Dense PN x PN matrix sum_m kron(G_m, K_m) (- shift * kron(I, M))."""
    P = gmats[0].shape[0]
    N = kmats[0].shape[0]
    A = np.zeros((P * N, P * N))
    for G, K in zip(gmats, kmats):
        A += np.kron(np.asarray(sp.csr_matrix(G).todense()),
                     np.asarray(sp.csr_matrix(K).todense()))
    if shift:
        A -= shift * np.kron(np.eye(P), np.asarray(sp.csr_matrix(mass).todense()))
    return A


def dense_generalized_eigenpairs(K, M, Q):
    """Q smallest eigenpairs of (K, M) via dense scipy.linalg.eigh."""
    Kd = np.asarray(sp.csr_matrix(K).todense())
    Md = np.asarray(sp.csr_matrix(M).todense())
    vals, vecs = scipy.linalg.eigh(Kd, Md)
    return vals[:Q], vecs[:, :Q]


def box_indices(aset):
    """Dense exponent tuples padded to the set's max dimension."""
    mdim = aset.max_dimension
    return [dense_exponents(a, mdim) for a in aset.indices]


def dense_triple_tensor(tt):
    """Dense (P, P, P) array of a TripleProductTensor's entries; [a] is the
    slice of first-slot index a."""
    P = tt.size
    out = np.zeros((P, P, P))
    out[tt.ia, tt.ib, tt.ic] = tt.values
    return out


def index_set_by_squaring(size, varsigma=3.2, weights=None):
    """Index set of a given size, found by squaring eps from 1/2 until the
    set has more than size members, then cutting it at the log-space
    midpoint of the size-th and (size+1)-th weights."""
    if size < 1:
        raise ValueError("size must be at least 1")
    kw = {"weights": weights} if weights is not None else {"varsigma": varsigma}
    eps = 0.5
    aset = generate_index_set(eps, **kw)
    while len(aset) < size + 1:
        new_eps = eps * eps
        if new_eps < 1e-300:
            raise ValueError(f"weight rule cannot reach size {size}")
        eps = new_eps
        aset = generate_index_set(eps, **kw)
    w_in, w_out = aset.weights[size - 1], aset.weights[size]
    if not w_in > w_out:
        sizes = np.nonzero(np.diff(aset.weights) < 0)[0] + 1
        lo = int(sizes[sizes < size][-1]) if np.any(sizes < size) else 1
        hi = int(sizes[sizes > size][0]) if np.any(sizes > size) else len(aset)
        raise ValueError(
            f"size {size} splits a weight tie; nearest achievable: {lo}, {hi}")
    cut = math.exp(0.5 * (math.log(w_in) + math.log(w_out)))
    return generate_index_set(cut, **kw)


def triple_tensor_pair_scan(aset):
    """Entries (ia, ib, ic, values) of the triple tensor, by pair scan.

    For each pair (b, c), candidate first-slot indices are enumerated per
    coordinate from the triangle/parity admissible range, then checked for
    membership; the value is the product of univariate triples over the
    union support, in ascending coordinate order.
    """
    P = len(aset)
    dense = [dense_exponents(a) for a in aset.indices]
    out = []
    for b in range(P):
        eb = dense[b]
        for c in range(b, P):
            ec = dense[c]
            ndim = max(len(eb), len(ec))
            pb = eb + (0,) * (ndim - len(eb))
            pc = ec + (0,) * (ndim - len(ec))
            # per-dim admissible first-slot degrees: |pb-pc| .. pb+pc, step 2
            cands = [()]
            for m in range(ndim):
                lo, hi = abs(pb[m] - pc[m]), pb[m] + pc[m]
                step = [(m + 1, d) for d in range(lo, hi + 1, 2) if d > 0]
                base = list(cands) if lo == 0 else []
                cands = base + [c0 + (p,) for c0 in cands for p in step]
                if not cands:
                    break
            for cand in cands:
                a = aset.position(cand)
                if a is None:
                    continue
                da = dict(cand)
                v = 1.0
                for m in range(ndim):
                    pa = da.get(m + 1, 0)
                    if pa or pb[m] or pc[m]:
                        v *= univariate_triple(pa, pb[m], pc[m])
                out.append((a, b, c, v))
                if b != c:
                    out.append((a, c, b, v))
    ia, ib, ic, vals = (np.array(col) for col in zip(*out))
    return ia.astype(np.intp), ib.astype(np.intp), ic.astype(np.intp), \
        vals.astype(float)
