"""Independent numeric oracles shared across test modules.

These deliberately avoid the package's own evaluation routines: Legendre
values come from numpy.polynomial.legendre.legval, eigenpairs from dense
scipy eigensolvers or from block inverse iteration on a sparse LU,
Kronecker applications from explicit materialization, and the FEM
matrices from a 2D quadrature assembly per term, or from explicit sparse
Kronecker products of the 1D factors the package keeps.  The 2D node
tables of a mesh and the sparse prolongation between nested meshes are
built here, on the grid, for the same reason.
The two construction oracles at the end are slow reference algorithms
instead: an index set found by squaring eps until it overshoots, and a
triple tensor found by scanning every index pair.  The package keeps one
route per quantity; the second routes tests compare against live here
too: the Rayleigh-quotient eigenvalue expansion, a sign convention for
eigenvectors, and Gauss rules of any size for the FEM factors.  The
package holds every vector in mean-eigenbasis coordinates; the oracles
take nodal values, and the tensor norm and inner product here apply the
mass to them.
"""

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chaoseig import fem
from chaoseig.fem import _lagrange_1d
from chaoseig.galerkin import DeltaFactor
from chaoseig.legendre import univariate_triple
from chaoseig.multiindex import generate_index_set


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


def build_moment_matrices(tt):
    """Sparse raise matrices for m = 0..max_dimension of the tensor's set,
    read off the triple tensor by `raise_entries`.

    Entry (a, b) of matrix m >= 1 is E[y_m Lam_a Lam_b]; matrix 0 is the
    identity.  As Lam_{e_m} = sqrt(3) y_m, matrix m is the triple tensor's
    slice at the first-order index e_m divided by sqrt(3): symmetric, with
    at most two structural nonzeros per row (the one-step neighbors in
    coordinate m).
    """
    mats = [sp.identity(tt.size, format="csr")]
    for m in range(1, tt.aset.max_dimension + 1):
        rows, cols, vals = tt.raise_entries(m)
        mats.append(sp.csr_matrix((vals, (rows, cols)),
                                  shape=mats[0].shape))
    return mats


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


def fix_signs(vecs):
    """Flip columns so the largest-magnitude entry of each is positive.

    Entries within 1e-8 relative of the largest magnitude count as tied
    (a symmetric mode has several, equal up to roundoff), and the first of
    them is made positive.  Works on one (N, k) array of columns or on a
    stack (..., N, k).
    """
    vecs = np.array(vecs, dtype=float)
    mags = np.abs(vecs)
    lead = np.argmax(mags >= (1.0 - 1e-8) * mags.max(axis=-2, keepdims=True),
                     axis=-2)[..., None, :]
    return np.where(np.take_along_axis(vecs, lead, axis=-2) < 0.0, -vecs,
                    vecs)


def tensor_dot(V, W, fem_op):
    """Mass-weighted inner product of two nodal (P, N) blocks."""
    return float(np.sum(V * fem_op.mass_apply(W)))


def tensor_norm(V, fem_op):
    """Mass-weighted norm of a nodal (P, N) block."""
    return float(np.sqrt(max(np.sum(V * fem_op.mass_apply(V)), 0.0)))


def nodal_columns(fem_op, B):
    """Nodal values of the columns of a (..., N, k) stack of coordinates."""
    return np.swapaxes(fem_op.to_nodal(np.swapaxes(B, -1, -2)), -1, -2)


def spectral_columns(fem_op, X):
    """Coordinates of the columns of a (..., N, k) stack of nodal values."""
    return np.swapaxes(fem_op.to_spectral(np.swapaxes(X, -1, -2)), -1, -2)


def rayleigh_quotient(system, U):
    """Chaos coefficients of the Rayleigh quotient of a nodal (P, N)
    expansion U: the Galerkin division of the energy u(y)' K(y) u(y) by
    the squared mass norm of u(y), formed on the coordinates Y =
    `to_spectral`(U), in which the mass norm is the plain norm.  An
    eigenvalue route independent of the sweep's mu = 1/s."""
    Y = system.fem_op.to_spectral(U)
    tt = system.tt
    num = tt.contract_gram(Y @ system.operator.apply(Y).T)
    return DeltaFactor(tt, tt.contract_gram(Y @ Y.T)).solve(num)


def _orthonormalize(X, M):
    """M-orthonormalize columns via Cholesky of the Gram matrix."""
    G = X.T @ (M @ X)
    L = np.linalg.cholesky(G)
    return np.linalg.solve(L, X.T).T


def smallest_eigenpairs(K, M, count=1, tol=1e-10, maxiter=200, seed=12345,
                        start=None, guard=2):
    """Smallest eigenpairs of the pencil (K, M) on sparse matrices.

    Block inverse iteration with Rayleigh-Ritz extraction: factor K once
    (sparse LU), then repeatedly apply K^{-1} M to an M-orthonormal block
    and rotate by the small projected eigenproblem.  The block carries
    `guard` extra vectors so a (near-)degenerate cluster at position
    `count` cannot stall the rate; convergence is tested on the requested
    columns only.  Deterministic: the random start is seeded (or supplied).
    Returns (values, vectors) with M-orthonormal columns, signed by
    `fix_signs`, values ascending.
    """
    n = K.shape[0]
    if not 1 <= count <= n:
        raise ValueError("count out of range")
    b = min(count + max(guard, 0), n)
    lu = spla.splu(sp.csc_matrix(K))
    rng = np.random.default_rng(seed)
    if start is None:
        X = rng.standard_normal((n, b))
    else:
        X = np.array(start, dtype=float).reshape(n, -1)
        if X.shape[1] < b:
            X = np.hstack([X, rng.standard_normal((n, b - X.shape[1]))])
    X = _orthonormalize(X, M)
    for _ in range(maxiter):
        X = lu.solve(M @ X)
        X = _orthonormalize(X, M)
        A = X.T @ (K @ X)
        A = 0.5 * (A + A.T)
        vals, S = np.linalg.eigh(A)
        X = X @ S
        Xc = X[:, :count]
        R = K @ Xc - (M @ Xc) * vals[None, :count]
        scale = np.abs(vals[:count]) * np.linalg.norm(M @ Xc, axis=0)
        if np.all(np.linalg.norm(R, axis=0) <= tol * scale):
            return vals[:count].copy(), fix_signs(Xc)
    raise RuntimeError(f"block inverse iteration stalled after {maxiter} "
                       f"sweeps (tol {tol:.1e})")


def matrix_at(op, y=()):
    """Pointwise stiffness K(y) of a ParametricOperator as a sparse matrix,
    for y in [-1,1]^nterms (short y padded with zeros; by default K_0).

    Explicit sparse Kronecker products of the 1D factor sums:
    K(y) = M (x) R_A + A (x) R_M + L_M (x) A + L_A (x) M, where (R_M, R_A)
    sums y_m (M_m, A_m) over the terms along x_1 (K_0 included, y_0 = 1)
    and (L_M, L_A) over the terms along x_2.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size > op.nterms:
        raise ValueError(f"point has {y.size} dims, operator has "
                         f"{op.nterms} terms")
    w = np.zeros(op.nterms + 1)
    w[0] = 1.0
    w[1:y.size + 1] = y
    R_M, R_A = np.tensordot(w * (op.axes == 0), op.factors, axes=1)
    L_M, L_A = np.tensordot(w * (op.axes == 1), op.factors, axes=1)
    M, A = op.factors[0]
    return sum(sp.kron(L, R, format="csr") for L, R in
               ((M, R_A), (A, R_M), (L_M, A), (L_A, M)))


def cell_rule_1d(order, nquad=None):
    """1D Gauss rule per cell with nquad points (order + 2, the package's
    rule, by default): reference points, weights, and the Lagrange basis
    values and derivatives there.  A stand-in for `fem._cell_rule_1d`
    when a test integrates the factors with another rule."""
    gx, gw = np.polynomial.legendre.leggauss(order + 2 if nquad is None
                                             else nquad)
    return (gx, gw) + _lagrange_1d(order, gx)


def use_cell_rule(monkeypatch, nquad):
    """Make the package integrate its 1D factors with the nquad-point rule
    of `cell_rule_1d` for the rest of a test (None keeps its own rule)."""
    if nquad is not None:
        monkeypatch.setattr(fem, "_cell_rule_1d",
                            lambda order: cell_rule_1d(order, nquad))


def use_skewed_term(monkeypatch, m=1):
    """Make the package's fluctuation m a_m = (m+1)^-varsigma t for the
    rest of a test, t being its own coordinate (x_1 for odd m, x_2 for
    even m).  It is not symmetric about t = 1/2, so its factors couple
    mean modes that the built-in profile keeps apart: the x_1-even modes
    to the x_1-odd ones for m = 1, modes of one parity for m = 2.
    `matrix_at` reads the factors, so it stays the pointwise oracle."""
    profile = fem._coefficient_profile

    def skewed(j, varsigma):
        axis, f = profile(j, varsigma)
        if j != m:
            return axis, f
        amp = fem.coefficient_amplitude(m, varsigma)
        return axis, lambda t: amp * np.asarray(t, dtype=float)

    monkeypatch.setattr(fem, "_coefficient_profile", skewed)


def basis_at(aset, y):
    """Values of the set's chaos basis at one point y, through `legval`."""
    out = np.ones(len(aset))
    for j, alpha in enumerate(aset.indices):
        for m, p in alpha:
            out[j] *= legval_normalized(p, y[m - 1])
    return out


def quadrature(mesh, nquad=None):
    """Tensor Gauss rule per cell (`cell_rule_1d`): points (ncells, nq, 2),
    weights (nq,), reference basis values (nq, nb) and gradients
    (nq, nb, 2)."""
    o = mesh.order
    gx, gw, v1, d1 = cell_rule_1d(o, nquad)
    n1 = gx.size
    # 2D tensor products, q = qy*n1 + qx, local node a = jy*(o+1) + jx
    vals = np.empty((n1 * n1, (o + 1) ** 2))
    gradx = np.empty_like(vals)
    grady = np.empty_like(vals)
    for qy in range(n1):
        for qx in range(n1):
            q = qy * n1 + qx
            for jy in range(o + 1):
                for jx in range(o + 1):
                    a = jy * (o + 1) + jx
                    vals[q, a] = v1[qx, jx] * v1[qy, jy]
                    gradx[q, a] = d1[qx, jx] * v1[qy, jy]
                    grady[q, a] = v1[qx, jx] * d1[qy, jy]
    w2 = (np.outer(gw, gw)).ravel()  # qy outer, qx inner
    h = mesh.h
    # physical quad points per cell
    cx, cy = np.meshgrid(np.arange(mesh.n), np.arange(mesh.n), indexing="xy")
    origins = np.stack([cx.ravel() * h, cy.ravel() * h], axis=1)
    ref = np.empty((n1 * n1, 2))
    for qy in range(n1):
        for qx in range(n1):
            ref[qy * n1 + qx] = (gx[qx], gx[qy])
    pts = origins[:, None, :] + (ref[None, :, :] + 1.0) * (h / 2.0)
    grads = np.stack([gradx, grady], axis=2)
    return pts, w2, vals, grads


def coefficient_term(m, varsigma=3.2):
    """Closed-form coefficient term a_m as a vectorized callable of (...,2):
    1 for m = 0, else (m+1)^-varsigma sin(m pi x_1) (m odd) or sin(m pi x_2)
    (m even)."""
    if m == 0:
        return lambda x: np.ones(np.shape(x)[:-1])
    axis = 0 if m % 2 == 1 else 1
    amp = float(m + 1) ** (-varsigma)
    return lambda x: amp * np.sin(m * np.pi * np.asarray(x)[..., axis])


def _node_tables(mesh):
    """2D grid tables of a mesh: node id iy*nps + ix -> interior dof (-1 on
    the boundary), cell -> node ids (local numbering x-fastest, then y),
    and the node coordinates, for nps nodes per side."""
    o = mesh.order
    nps = mesh.n * o + 1
    ix, iy = np.meshgrid(np.arange(nps), np.arange(nps), indexing="xy")
    flat = ((ix > 0) & (ix < nps - 1) & (iy > 0) & (iy < nps - 1)).ravel()
    interior_of_node = np.where(flat, np.cumsum(flat) - 1, -1)
    cx, cy = np.meshgrid(np.arange(mesh.n), np.arange(mesh.n), indexing="xy")
    cx = cx.ravel()
    cy = cy.ravel()
    local = [(jy, jx) for jy in range(o + 1) for jx in range(o + 1)]
    cell_nodes = np.stack([(cy * o + jy) * nps + (cx * o + jx)
                           for jy, jx in local], axis=1)
    xs = np.arange(nps) * (1.0 / (mesh.n * o))
    coords = np.stack([np.tile(xs, nps), np.repeat(xs, nps)], axis=1)
    return interior_of_node, cell_nodes, coords[flat]


def cell_dofs(mesh):
    """(ncells, nb) interior dof of each cell's local nodes, -1 on the
    boundary."""
    interior_of_node, cell_nodes, _ = _node_tables(mesh)
    return interior_of_node[cell_nodes]


def dof_coords(mesh):
    """(ndof, 2) physical coordinates of the interior dofs."""
    return _node_tables(mesh)[2]


def prolongation_matrix(coarse, fine):
    """Sparse interior-dof interpolation from a nested coarse mesh, on the
    2D grid: the coarse basis evaluated at the fine dof locations."""
    o = coarse.order
    pts = dof_coords(fine)
    hc = coarse.h
    cell = np.minimum((pts / hc).astype(int), coarse.n - 1)
    local = 2.0 * (pts / hc - cell) - 1.0
    vx, _ = _lagrange_1d(o, local[:, 0])
    vy, _ = _lagrange_1d(o, local[:, 1])
    dofs = cell_dofs(coarse)[cell[:, 1] * coarse.n + cell[:, 0]]
    rows, cols, vals = [], [], []
    for jy in range(o + 1):
        for jx in range(o + 1):
            dof = dofs[:, jy * (o + 1) + jx]
            keep = dof >= 0
            rows.append(np.nonzero(keep)[0])
            cols.append(dof[keep])
            vals.append((vx[:, jx] * vy[:, jy])[keep])
    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(fine.ndof, coarse.ndof))
    return P.tocsr()


def _assemble(mesh, local_matrices):
    """Scatter per-cell local matrices into an interior-dof CSR matrix."""
    dofs = cell_dofs(mesh)  # (ncells, nb), -1 boundary
    nb = dofs.shape[1]
    rows = np.repeat(dofs, nb, axis=1).ravel()
    cols = np.tile(dofs, (1, nb)).ravel()
    data = local_matrices.reshape(-1)
    keep = (rows >= 0) & (cols >= 0)
    A = sp.coo_matrix((data[keep], (rows[keep], cols[keep])),
                      shape=(mesh.ndof, mesh.ndof))
    return A.tocsr()


def assemble_mass(mesh, nquad=None):
    """Interior-dof mass matrix by 2D quadrature."""
    _, w2, vals, _ = quadrature(mesh, nquad)
    jac = (mesh.h / 2.0) ** 2
    local = jac * np.einsum("q,qa,qb->ab", w2, vals, vals)
    return _assemble(mesh,
                     np.broadcast_to(local, (mesh.n ** 2,) + local.shape))


def assemble_stiffness(mesh, coef=None, nquad=None):
    """Interior-dof stiffness matrix by 2D quadrature for a scalar
    coefficient, a vectorized callable of physical points (default: 1)."""
    pts, w2, _, grads = quadrature(mesh, nquad)
    avals = np.ones(pts.shape[:2]) if coef is None else coef(pts)
    # reference gradients scale by 2/h, the Jacobian by (h/2)^2: they cancel
    gk = np.einsum("qad,qbd->qab", grads, grads)
    local = np.einsum("cq,qab->cab", avals * w2[None, :], gk)
    return _assemble(mesh, local)


def assemble_terms(mesh, nterms, varsigma=3.2, nquad=None):
    """Stiffness terms K_0..K_nterms of the built-in family, assembled."""
    return [assemble_stiffness(mesh, coefficient_term(m, varsigma), nquad)
            for m in range(nterms + 1)]


def l2_error_against_function(mesh, dof_values, fn, nquad=None):
    """L2(D) distance between an interior-dof FE function and a callable."""
    pts, w2, vals, _ = quadrature(mesh, nquad)
    jac = (mesh.h / 2.0) ** 2
    dofs = cell_dofs(mesh)
    u_cell = np.where(dofs >= 0, np.asarray(dof_values)[dofs], 0.0)
    fe = np.einsum("cb,qb->cq", u_cell, vals)
    diff = fe - fn(pts)
    return float(np.sqrt(jac * np.sum(w2[None, :] * diff * diff)))


def weighted_gram(tt, V, W, fem_op):
    """Chaos coefficients of <V(y), W(y)> for nodal blocks V, W: the mass
    Gram V M W^T of their chaos rows, contracted with the triple tensor."""
    return tt.contract_gram(V @ fem_op.mass_apply(W).T)


def orthogonality_defect(system, B):
    """Largest chaos-coefficient norm of <u_i(y), u_j(y)> over pairs i<j of
    a nodal (P, N, Q) stack, through `weighted_gram`."""
    q = B.shape[2]
    return max((float(np.linalg.norm(weighted_gram(
        system.tt, B[:, :, i], B[:, :, j], system.fem_op)))
        for i in range(q) for j in range(i + 1, q)), default=0.0)


def dense_exponents(alpha, ndim=None):
    """Dense exponent tuple of a sparse multi-index, padded to ``ndim``."""
    if ndim is None:
        ndim = alpha[-1][0] if alpha else 0
    out = [0] * ndim
    for d, e in alpha:
        out[d - 1] = e
    return tuple(out)


def box_indices(aset):
    """Dense exponent tuples padded to the set's max dimension."""
    mdim = aset.max_dimension
    return [dense_exponents(a, mdim) for a in aset.indices]


def is_downward_closed(aset):
    """Every member minus one in any exponent is a member, checked on the
    dense exponent tuples."""
    members = set(box_indices(aset))
    return all(d[:i] + (d[i] - 1,) + d[i + 1:] in members
               for d in members for i in range(len(d)) if d[i])


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
