"""Uniform-grid finite elements on the unit square with Dirichlet walls.

Bilinear (order 1) or biquadratic (order 2) quadrilateral elements on an
n-by-n uniform grid of [0,1]^2, homogeneous Dirichlet boundary conditions
eliminated at assembly time.  Provides the mass matrix M and the stiffness
family K^(m) for an affine-parametric diffusion coefficient

    a(x, y) = a_0(x) + sum_m y_m a_m(x),    y_m in [-1, 1],

with the built-in fluctuation family a_0 = 1 and, for m >= 1,

    a_m(x) = (m+1)^(-varsigma) * sin(m pi x_1)   (m odd)
    a_m(x) = (m+1)^(-varsigma) * sin(m pi x_2)   (m even),

whose amplitudes (m+1)^(-varsigma) sum to zeta(varsigma) - 1.  That sum is
below 1, so a(x, y) >= 1 - sum > 0 for every y, only for varsigma above
about 1.73 (the default 3.2 gives 0.17); smaller varsigma is accepted but
not checked.  All assembled matrices share one sparsity pattern, so
pointwise matrices K(y) are formed by combining stored data arrays only.

Each a_m depends on x_1 alone or on x_2 alone and the grid is a tensor
product, so every stiffness term is also stored in separable form: with the
1D interior-node mass M and stiffness A (coefficient 1) and the 1D matrices
M_m, A_m weighted by the profile of a_m,

    K_m = M (x) A_m + A (x) M_m     (a_m varies along x_1)
    K_m = M_m (x) A + A_m (x) M     (a_m varies along x_2),

where the left Kronecker factor acts on the x_2 (slow) dof index; the mass
matrix is M (x) M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mesh",
    "build_mesh",
    "coefficient_term",
    "coefficient_amplitude",
    "assemble_mass",
    "assemble_stiffness",
    "ParametricOperator",
    "build_parametric_operator",
    "prolongation_matrix",
    "l2_error_against_function",
]


def _lagrange_1d(order, x):
    """Values and derivatives of the 1D Lagrange basis on nodes in [-1,1].

    Returns (vals, ders) of shape (len(x), order+1) for equispaced reference
    nodes (order 1: endpoints; order 2: endpoints plus midpoint).
    """
    nodes = np.linspace(-1.0, 1.0, order + 1)
    # coefficients by Vandermonde inversion; exact for tiny orders
    V = np.vander(nodes, increasing=True)
    C = np.linalg.inv(V)  # column j = monomial coeffs of basis function j
    x = np.asarray(x, dtype=float)
    powers = np.vander(x, order + 1, increasing=True)
    dpowers = np.zeros_like(powers)
    for k in range(1, order + 1):
        dpowers[:, k] = k * powers[:, k - 1]
    return powers @ C, dpowers @ C


def _cell_rule_1d(order, nquad):
    """1D Gauss rule per cell (order + 2 points by default): reference
    points, weights, and the Lagrange basis values and derivatives there."""
    gx, gw = np.polynomial.legendre.leggauss((order + 2) if nquad is None
                                             else int(nquad))
    return (gx, gw) + _lagrange_1d(order, gx)


@dataclass
class Mesh:
    """Uniform quadrilateral grid with interior-dof numbering.

    Attributes
    ----------
    n : cells per side.
    order : element order (1 bilinear, 2 biquadratic).
    ndof : interior degrees of freedom, (n*order - 1)^2.
    """

    n: int
    order: int
    nodes_per_side: int = field(init=False)
    ndof: int = field(init=False)
    interior_of_node: np.ndarray = field(init=False, repr=False)
    cell_nodes: np.ndarray = field(init=False, repr=False)
    dof_coords: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("element order must be 1 or 2")
        if self.n < 2:
            raise ValueError("need at least 2 cells per side")
        nps = self.n * self.order + 1
        self.nodes_per_side = nps
        ix, iy = np.meshgrid(np.arange(nps), np.arange(nps), indexing="xy")
        interior = ((ix > 0) & (ix < nps - 1) & (iy > 0) & (iy < nps - 1))
        flat = interior.ravel()  # node id = iy*nps + ix
        self.interior_of_node = np.where(flat, np.cumsum(flat) - 1, -1)
        self.ndof = int(flat.sum())
        # cell -> global node ids, local numbering x-fastest then y
        o = self.order
        cx, cy = np.meshgrid(np.arange(self.n), np.arange(self.n),
                             indexing="xy")
        cx = cx.ravel()
        cy = cy.ravel()
        local = [(jy, jx) for jy in range(o + 1) for jx in range(o + 1)]
        cols = [(cy * o + jy) * nps + (cx * o + jx) for jy, jx in local]
        self.cell_nodes = np.stack(cols, axis=1)
        hn = 1.0 / (self.n * self.order)
        xs = np.arange(nps) * hn
        coords = np.stack([np.tile(xs, nps), np.repeat(xs, nps)], axis=1)
        self.dof_coords = coords[flat]

    @property
    def h(self):
        return 1.0 / self.n

    def quadrature(self, nquad=None):
        """Tensor Gauss rule per cell: points (ncells, nq, 2), weights (nq,),
        reference basis values (nq, nb) and gradients (nq, nb, 2)."""
        o = self.order
        gx, gw, v1, d1 = _cell_rule_1d(o, nquad)
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
        h = self.h
        # physical quad points per cell
        cx, cy = np.meshgrid(np.arange(self.n), np.arange(self.n),
                             indexing="xy")
        origins = np.stack([cx.ravel() * h, cy.ravel() * h], axis=1)
        ref = np.empty((n1 * n1, 2))
        for qy in range(n1):
            for qx in range(n1):
                ref[qy * n1 + qx] = (gx[qx], gx[qy])
        pts = origins[:, None, :] + (ref[None, :, :] + 1.0) * (h / 2.0)
        grads = np.stack([gradx, grady], axis=2)
        return pts, w2, vals, grads


def build_mesh(n, order):
    """Uniform mesh of the unit square; see Mesh."""
    return Mesh(n, order)


def coefficient_amplitude(m, varsigma):
    """Sup-norm bound (m+1)^(-varsigma) of the m-th fluctuation."""
    return float(m + 1) ** (-varsigma)


def _coefficient_profile(m, varsigma):
    """(axis, f) with a_m(x) = f(x[axis]): the 1D profile of term m."""
    if m < 0:
        raise ValueError("term index must be non-negative")
    if m == 0:
        return 0, lambda t: np.ones(np.shape(t))
    amp = coefficient_amplitude(m, varsigma)
    return (0 if m % 2 == 1 else 1), lambda t: amp * np.sin(m * np.pi * t)


def coefficient_term(m, varsigma=3.2):
    """Closed-form coefficient term a_m as a vectorized callable of (...,2)."""
    axis, profile = _coefficient_profile(m, varsigma)
    return lambda x: profile(np.asarray(x)[..., axis])


def _assemble(mesh, local_matrices):
    """Scatter per-cell local matrices into an interior-dof CSR matrix."""
    nb = mesh.cell_nodes.shape[1]
    dofs = mesh.interior_of_node[mesh.cell_nodes]  # (ncells, nb), -1 boundary
    rows = np.repeat(dofs, nb, axis=1).ravel()
    cols = np.tile(dofs, (1, nb)).ravel()
    data = local_matrices.reshape(-1)
    keep = (rows >= 0) & (cols >= 0)
    A = sp.coo_matrix((data[keep], (rows[keep], cols[keep])),
                      shape=(mesh.ndof, mesh.ndof))
    return A.tocsr()


def assemble_mass(mesh, nquad=None):
    """Interior-dof mass matrix, symmetric positive definite."""
    return _mass(mesh, mesh.quadrature(nquad))


def _mass(mesh, rule):
    _, w2, vals, _ = rule
    jac = (mesh.h / 2.0) ** 2
    local = jac * np.einsum("q,qa,qb->ab", w2, vals, vals)
    ncells = mesh.cell_nodes.shape[0]
    return _assemble(mesh, np.broadcast_to(local, (ncells,) + local.shape))


def assemble_stiffness(mesh, coef=None, nquad=None):
    """Interior-dof stiffness matrix for a scalar coefficient.

    coef is a vectorized callable of physical points (default: 1).  The
    default quadrature, (order+2)^2 Gauss points per cell, is a knob: the
    oscillatory built-in coefficients are integrated approximately, with an
    error bounded by the term amplitude.
    """
    return _stiffness(mesh, mesh.quadrature(nquad), coef)


def _stiffness(mesh, rule, coef):
    pts, w2, _, grads = rule
    avals = np.ones(pts.shape[:2]) if coef is None else coef(pts)
    # reference gradients scale by 2/h, the Jacobian by (h/2)^2: they cancel
    gk = np.einsum("qad,qbd->qab", grads, grads)
    local = np.einsum("cq,qab->cab", avals * w2[None, :], gk)
    return _assemble(mesh, local)


def _assemble_1d(mesh, nquad, profile):
    """Dense 1D interior-node (mass, stiffness) for a coefficient profile.

    Uses the per-cell Gauss rule of the 2D assembly along one axis, so the
    Kronecker products of these factors reproduce the assembled terms.
    """
    o, n, h = mesh.order, mesh.n, mesh.h
    gx, gw, v1, d1 = _cell_rule_1d(o, nquad)
    cw = profile(np.arange(n)[:, None] * h + (gx + 1.0) * (h / 2.0)) * gw
    local = np.stack([(h / 2.0) * np.einsum("cq,qa,qb->cab", cw, v1, v1),
                      (2.0 / h) * np.einsum("cq,qa,qb->cab", cw, d1, d1)])
    node = np.arange(n)[:, None] * o + np.arange(o + 1)  # (cells, o+1)
    out = np.zeros((2, n * o + 1, n * o + 1))
    np.add.at(out, (slice(None), node[:, :, None], node[:, None, :]), local)
    return out[:, 1:-1, 1:-1]  # drop the two Dirichlet end nodes


@dataclass
class ParametricOperator:
    """Mass matrix plus affine stiffness family on one mesh.

    K(y) = K[0] + sum_{m>=1} y_m K[m]; all K[m] share one sparsity pattern
    (stored stacked in `stiffness_data`), so `matrix_at` is a pure data
    combination.  `factors[m]` holds the dense 1D (M_m, A_m) of term m and
    `axes[m]` the axis its profile varies along (0 for x_1); the separable
    form in the module docstring rebuilds K[m] from them, with (M, A) =
    `factors[0]`.
    """

    mesh: Mesh
    varsigma: float
    mass: sp.csr_matrix
    stiffness: list
    stiffness_data: np.ndarray = field(repr=False)
    factors: np.ndarray = field(repr=False)
    axes: np.ndarray = field(repr=False)

    @property
    def ndof(self):
        return self.mesh.ndof

    @property
    def nterms(self):
        return len(self.stiffness) - 1

    def matrix_at(self, y):
        """Pointwise stiffness K(y) for y in [-1,1]^nterms (short y padded)."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.size > self.nterms:
            raise ValueError(f"point has {y.size} dims, operator has "
                             f"{self.nterms} terms")
        K = self.stiffness[0].copy()
        if y.size:
            K.data = self.stiffness_data[0] + y @ self.stiffness_data[1:y.size + 1]
        return K


def build_parametric_operator(mesh, varsigma=3.2, nterms=0, nquad=None):
    """Assemble M and K^(0..nterms) for the built-in coefficient family,
    plus the 1D factors of every term."""
    rule = mesh.quadrature(nquad)  # once: it is the costly part per term
    mass = _mass(mesh, rule)
    mats = [_stiffness(mesh, rule, None)]
    for m in range(1, nterms + 1):
        mats.append(_stiffness(mesh, rule, coefficient_term(m, varsigma)))
    for K in mats[1:]:
        if not np.array_equal(K.indptr, mats[0].indptr) or \
           not np.array_equal(K.indices, mats[0].indices):
            raise AssertionError("stiffness terms lost the shared pattern")
    data = np.stack([K.data for K in mats])
    profiles = [_coefficient_profile(m, varsigma) for m in range(nterms + 1)]
    factors = np.stack([_assemble_1d(mesh, nquad, f) for _, f in profiles])
    axes = np.array([axis for axis, _ in profiles])
    return ParametricOperator(mesh, varsigma, mass, mats, data, factors, axes)


def prolongation_matrix(coarse: Mesh, fine: Mesh):
    """Interior-dof interpolation matrix from a nested coarse mesh.

    Requires fine.n to be a multiple of coarse.n and equal element orders;
    evaluates the coarse basis at fine dof locations (exact FE embedding
    for nested uniform grids).
    """
    if fine.n % coarse.n != 0 or fine.order != coarse.order:
        raise ValueError("meshes are not nested")
    o = coarse.order
    pts = fine.dof_coords
    hc = coarse.h
    cell = np.minimum((pts / hc).astype(int), coarse.n - 1)
    local = 2.0 * (pts / hc - cell) - 1.0
    vx, _ = _lagrange_1d(o, local[:, 0])
    vy, _ = _lagrange_1d(o, local[:, 1])
    cell_ids = cell[:, 1] * coarse.n + cell[:, 0]
    nodes = coarse.cell_nodes[cell_ids]  # (nf, nb)
    rows, cols, vals = [], [], []
    for jy in range(o + 1):
        for jx in range(o + 1):
            a = jy * (o + 1) + jx
            dof = coarse.interior_of_node[nodes[:, a]]
            keep = dof >= 0
            rows.append(np.nonzero(keep)[0])
            cols.append(dof[keep])
            vals.append((vx[:, jx] * vy[:, jy])[keep])
    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(fine.ndof, coarse.ndof))
    return P.tocsr()


def l2_error_against_function(mesh, dof_values, fn, nquad=None):
    """L2(D) distance between an interior-dof FE function and a callable."""
    pts, w2, vals, _ = mesh.quadrature(nquad)
    jac = (mesh.h / 2.0) ** 2
    dofs = mesh.interior_of_node[mesh.cell_nodes]
    u_cell = np.where(dofs >= 0, np.asarray(dof_values)[dofs], 0.0)
    fe = np.einsum("cb,qb->cq", u_cell, vals)
    diff = fe - fn(pts)
    return float(np.sqrt(jac * np.sum(w2[None, :] * diff * diff)))
