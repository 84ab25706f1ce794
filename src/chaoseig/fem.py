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
about 1.73 (the default 3.2 gives 0.17).  For smaller varsigma a truncated
family can still be uniformly positive; `build_parametric_operator`
rejects one that is not at the quadrature points.

Each a_m depends on x_1 alone or on x_2 alone and the grid is a tensor
product, so every term is held only in separable form: with the 1D
interior-node mass M and stiffness A (coefficient 1) and the 1D matrices
M_m, A_m weighted by the profile of a_m,

    K_m = M (x) A_m + A (x) M_m     (a_m varies along x_1)
    K_m = M_m (x) A + A_m (x) M     (a_m varies along x_2),

where the left Kronecker factor acts on the x_2 (slow) dof index; the mass
matrix is M (x) M.  Every integral uses one rule, the tensor Gauss rule
of order + 2 points per axis in each cell, and with it these are exactly
the matrices a 2D quadrature assembly would give.  No N x N matrix is
formed: a vector of length N is an (n, n) slice X, x_2 index first, on
which B (x) C acts as B X C (every factor is symmetric), so the mass maps
X to M X M.  The 1D mean eigenbasis (lam, Q), A Q = M Q diag(lam) with
Q^T M Q = I, diagonalizes the mean problem: in the coordinates
Y = (MQ)^T X (MQ), X = Q Y Q^T, the mass is the identity and the mean
term K_0 = M (x) A + A (x) M is the division by lam_i + lam_j.  Every
vector the package takes or returns is held in these coordinates, where
the mass inner product is the plain dot product; the Galerkin sweep and
the pointwise eigensolver act on them with the 1D factors moved there
once (`spectral_factors`).  `to_nodal` and `to_spectral` convert at the
edge, and `mass_apply` gives the nodal mass products.

The grid and a_0 are symmetric about x_1 = 1/2, and so is every profile
sin(m pi x_1) with m odd.  Each 1D mean mode is then even or odd about the
midline, and no term couples an x_1-even mode Q_j to an x_1-odd one:
K(y) keeps the coordinates with an even x_1 mode among themselves for
every y (Bossavit, CMAME 56, 1986).  `even_modes` names those modes once
it has checked both facts on the assembled factors.  Each sin(m pi x_2),
m even, is odd about x_2 = 1/2, so reflecting x_2 and flipping every such
y_m leaves K(y) unchanged; `x2_terms_flip_parity` checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Mesh",
    "build_mesh",
    "coefficient_amplitude",
    "ParametricOperator",
    "build_parametric_operator",
    "prolongation_1d",
]


# a mode's reflection, an x_1 factor's coupling of an even mode to an odd
# one and an x_2 factor's coupling of two modes of one parity count as
# zero below this share of their largest entry; all three sit under 2e-13
# on the built-in family at n = 3 to 95
_PARITY_TOL = 1e-10


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


def _cell_rule_1d(order):
    """1D Gauss rule per cell, order + 2 points: reference points, weights,
    and the Lagrange basis values and derivatives there."""
    gx, gw = np.polynomial.legendre.leggauss(order + 2)
    return (gx, gw) + _lagrange_1d(order, gx)


@dataclass
class Mesh:
    """Uniform quadrilateral grid; interior dofs x_1 fastest.

    Attributes
    ----------
    n : cells per side.
    order : element order (1 bilinear, 2 biquadratic).
    ndof : interior degrees of freedom, (n*order - 1)^2.
    """

    n: int
    order: int
    ndof: int = field(init=False)

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("element order must be 1 or 2")
        if self.n < 2:
            raise ValueError("need at least 2 cells per side")
        self.ndof = (self.n * self.order - 1) ** 2

    @property
    def h(self):
        return 1.0 / self.n


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


def _assemble_1d(mesh, rule_1d, values):
    """Dense 1D interior-node (mass, stiffness) per coefficient profile,
    (profiles, 2, n, n), given the profiles' values (profiles, cells,
    points) at the points of the per-cell 1D rule.  Entries that touch one
    of the two Dirichlet end nodes are dropped before they are added up.
    """
    o, n, h = mesh.order, mesh.n, mesh.h
    _, gw, v1, d1 = rule_1d
    cw = values * gw
    local = np.stack([(h / 2.0) * np.einsum("tcq,qa,qb->tcab", cw, v1, v1),
                      (2.0 / h) * np.einsum("tcq,qa,qb->tcab", cw, d1, d1)],
                     axis=1)
    # interior numbering of each cell's nodes; the end nodes fall outside
    node = np.arange(n)[:, None] * o + np.arange(o + 1) - 1
    inside = (node >= 0) & (node < n * o - 1)
    pairs = inside[:, :, None] & inside[:, None, :]
    rows = np.broadcast_to(node[:, :, None], pairs.shape)[pairs]
    cols = np.broadcast_to(node[:, None, :], pairs.shape)[pairs]
    out = np.zeros((len(values), 2, n * o - 1, n * o - 1))
    np.add.at(out, (slice(None), slice(None), rows, cols), local[..., pairs])
    return out


def _each_slice(V, left, right):
    """left X right for each (n, n) slice X along the last axis of V."""
    n = len(left)
    Y = (np.reshape(V, (-1, n)) @ right).reshape(-1, n, n)
    return np.matmul(left, Y).reshape(np.shape(V))


@dataclass
class ParametricOperator:
    """Mass matrix plus affine stiffness family on one mesh, in 1D factors.

    K(y) = K_0 + sum_{m>=1} y_m K_m.  `factors[m]` holds the dense 1D
    (M_m, A_m) of term m and `axes[m]` the axis its profile varies along
    (0 for x_1), with (M, A) = `factors[0]`; the separable form in the
    module docstring gives K_m.  Summing y_m (M_m, A_m) over the terms
    along x_1 (K_0 included, y_0 = 1) into (R_M, R_A) and over the terms
    along x_2 into (L_M, L_A) gives

        K(y) = M (x) R_A + A (x) R_M + L_M (x) A + L_A (x) M.

    `mass_apply` acts with the mass M (x) M on the last, length-N axis of
    an array, and `to_spectral` and `to_nodal` move it into and out of the
    mean eigenbasis, where K_0 is the elementwise scaling by `mean_values`
    and the 1D factors are `spectral_factors`.  `ellipticity` =
    (a_lo, a_hi) bounds the coefficient at the quadrature points for every
    y in the box, so that a_lo K_0 <= K(y) <= a_hi K_0.
    """

    mesh: Mesh
    varsigma: float
    factors: np.ndarray = field(repr=False)
    axes: np.ndarray = field(repr=False)
    ellipticity: tuple

    @property
    def ndof(self):
        return self.mesh.ndof

    @property
    def nterms(self):
        return len(self.factors) - 1

    @cached_property
    def mean_eigenbasis(self):
        """(lam, Q) with A Q = M Q diag(lam) and Q^T M Q = I for the 1D
        mean factors (M, A) = `factors[0]`.  K_0 = M (x) A + A (x) M is
        then diagonal in Q (x) Q, with the values lam_i + lam_j: the fast
        diagonalization of the mean term, the sweep's coordinates and the
        exact mean eigenpairs all come from here.  Computed once per
        operator, on numpy's BLAS (see `galerkin.DeltaFactor`).

        Q = L^-T W from M = L L^T and the eigenvectors W of L^-1 A L^-T.
        That leaves column k an error near eps lam_max / (gap at lam_k),
        3e-13 in the smallest modes at n = 95, and lam_0 one of 6e-13: the
        sweep treats Q^T A Q as diagonal, so these would be its error.  One
        first-order correction of Q against A and M themselves, a
        first-order M-renormalization and the recomputed lam_k =
        Q_k^T A Q_k bring both to roundoff.  Each column is signed so that
        its first entry is positive, which makes the basis of a degenerate
        mean eigenspace, and so the mean modes of `mean_eigenpairs`, part
        of the contract.
        """
        M, A = self.factors[0]
        L_inv = np.linalg.inv(np.linalg.cholesky(M))
        Q = L_inv.T @ np.linalg.eigh(L_inv @ A @ L_inv.T)[1]
        lam = np.sum(Q * (A @ Q), axis=0)
        gap = lam[:, None] - lam[None, :]
        np.fill_diagonal(gap, np.inf)
        Q = Q + Q @ ((lam * (Q.T @ M @ Q) - Q.T @ A @ Q) / gap)
        Q = Q @ (1.5 * np.eye(len(Q)) - 0.5 * (Q.T @ M @ Q))
        Q = np.where(Q[:1] < 0.0, -Q, Q)
        return np.sum(Q * (A @ Q), axis=0), Q

    @cached_property
    def even_modes(self):
        """Positions of the 1D mean modes (columns of Q in
        `mean_eigenbasis`) that are even about x_1 = 1/2, or None if the
        x_1 reflection does not leave K(y) unchanged.

        The columns of Q alternate parity, starting even, and the spectral
        factors of every term along x_1 couple no even mode to an odd one:
        both are checked to `_PARITY_TOL` of the largest entry.  Terms
        along x_2 act on the x_1 index through the mean factors, which are
        diagonal in Q, so they keep the parity of every mode.
        """
        Q = self.mean_eigenbasis[1]
        n = len(Q)
        if (np.abs(Q[::-1] - (-1.0) ** np.arange(n) * Q).max()
                > _PARITY_TOL * np.abs(Q).max()):
            return None
        even, odd = np.arange(0, n, 2), np.arange(1, n, 2)
        F = self.spectral_factors[1:][self.axes[1:] == 0]
        coupling = np.abs(F[..., even[:, None], odd]).max(
            axis=(-2, -1), initial=0.0)
        if (coupling > _PARITY_TOL * np.abs(F).max(axis=(-2, -1))).any():
            return None
        return even

    @cached_property
    def x2_terms_flip_parity(self):
        """Whether `even_modes` holds and every term along x_2 couples only
        1D mean modes of opposite parity, to `_PARITY_TOL` of the largest
        factor entry of all terms: a term that aliases to roundoff on the
        grid (sin 32 pi x_2 at n = 16, order 1) has no scale of its own."""
        if self.even_modes is None:
            return False
        F = self.spectral_factors
        parity = np.arange(F.shape[-1]) % 2
        same = parity[:, None] == parity
        return bool(np.abs(F[1:][self.axes[1:] == 1][..., same]).max(
            initial=0.0) <= _PARITY_TOL * np.abs(F).max())

    def mass_apply(self, V):
        """M (x) M applied along the last axis of V: each (n, n) slice X
        becomes M X M."""
        M = self.factors[0, 0]
        return _each_slice(V, M, M)

    @cached_property
    def mean_values(self):
        """The (n, n) table lam_i + lam_j of the mean eigenvalues, with
        (lam, Q) = `mean_eigenbasis`: K_0 in the coordinates of
        `to_spectral`, flattened the same way."""
        lam = self.mean_eigenbasis[0]
        return lam[:, None] + lam[None, :]

    @cached_property
    def spectral_factors(self):
        """The 1D factors in the mean eigenbasis, Q^T (M_m, A_m) Q for every
        term, (terms, 2, n, n); term 0 is (I, diag(lam)) up to roundoff.
        Symmetrized, as the nodal factors are symmetric, so that a product
        along x_2 may use a factor for its transpose."""
        Q = self.mean_eigenbasis[1]
        F = np.matmul(Q.T, np.matmul(self.factors, Q))
        return 0.5 * (F + F.swapaxes(-1, -2))

    def to_spectral(self, V):
        """Mean-eigenbasis coordinates along the last axis of V: each
        (n, n) slice X becomes Y = (MQ)^T X (MQ), the inverse of
        `to_nodal`.  The mass inner product of two slices is the plain dot
        product of their coordinates."""
        Q = self.mean_eigenbasis[1]
        MQ = self.factors[0, 0] @ Q
        return _each_slice(V, MQ.T, MQ)

    def to_nodal(self, Y):
        """Nodal values along the last axis of Y, from mean-eigenbasis
        coordinates: each (n, n) slice Y becomes X = Q Y Q^T."""
        Q = self.mean_eigenbasis[1]
        return _each_slice(Y, Q, Q.T)

    def mean_eigenpairs(self, count):
        """The `count` smallest eigenpairs of (K_0, M (x) M): values
        lam_i + lam_j ascending, ties in row-major (i, j) order, and the
        modes Q_i (x) Q_j as (N, count) columns of coordinates (see
        `to_spectral`), each the unit vector at its flat position (i, j).
        """
        values = self.mean_values
        pick = np.argsort(values, axis=None, kind="stable")[:count]
        vecs = np.zeros((values.size, pick.size))
        vecs[pick, np.arange(pick.size)] = 1.0
        return values.flat[pick], vecs


def build_parametric_operator(mesh, varsigma=3.2, nterms=0):
    """The 1D factors of M and K_0..K_nterms for the built-in coefficient
    family, each integrated with the per-cell Gauss rule of order + 2
    points.

    Raises ValueError if the coefficient is not uniformly positive over the
    active terms, that is if a_0 - sum_m |a_m| <= 0 at a quadrature point.
    """
    profiles = [_coefficient_profile(m, varsigma) for m in range(nterms + 1)]
    axes = np.array([axis for axis, _ in profiles])
    rule_1d = _cell_rule_1d(mesh.order)
    h = mesh.h
    t = np.arange(mesh.n)[:, None] * h + (rule_1d[0] + 1.0) * (h / 2.0)
    values = np.stack([f(t) for _, f in profiles])  # (terms, cells, points)
    # the 2D rule behind the factors is the 1D rule squared and each a_m
    # varies along one axis, so the largest sum of |a_m| per axis bounds
    # a_0 - sum |a_m| over the 2D points from below (exactly, for a
    # constant a_0)
    spread = sum(np.abs(values[1:][axes[1:] == k]).sum(axis=0).max()
                 for k in (0, 1))
    floor = values[0].min() - spread
    if floor <= 0.0:
        raise ValueError(
            f"coefficient not uniformly positive for varsigma={varsigma} "
            f"with {nterms} terms: a_0 - sum |a_m| = {floor:.3g} at the "
            f"quadrature points; raise varsigma or cap the terms")
    factors = _assemble_1d(mesh, rule_1d, values)
    return ParametricOperator(mesh, varsigma, factors, axes,
                              (float(floor),
                               float(values[0].max() + spread)))


def prolongation_1d(coarse: Mesh, fine: Mesh):
    """Interior-node interpolation P1 from a nested coarse 1D grid.

    Requires fine.n to be a multiple of coarse.n and equal element orders.
    Row i holds the coarse basis functions at fine node i, so P1 is the
    exact FE embedding on one axis; on the square the prolongation is
    P1 (x) P1, which maps a coarse (n, n) slice X to P1 X P1^T.
    """
    if fine.n % coarse.n != 0 or fine.order != coarse.order:
        raise ValueError("meshes are not nested")
    o = coarse.order
    t = np.arange(1, fine.n * o) * (1.0 / (fine.n * o)) / coarse.h
    cell = np.minimum(t.astype(int), coarse.n - 1)
    vals, _ = _lagrange_1d(o, 2.0 * (t - cell) - 1.0)
    P1 = np.zeros((t.size, coarse.n * o + 1))
    np.put_along_axis(P1, cell[:, None] * o + np.arange(o + 1), vals, axis=1)
    return P1[:, 1:-1]  # the two Dirichlet end nodes drop out
