"""Tests for uniform-grid FEM assembly on the unit square."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chaoseig.fem import (
    build_mesh,
    build_parametric_operator,
    coefficient_amplitude,
    prolongation_1d,
)
from oracles import (
    assemble_mass,
    assemble_stiffness,
    assemble_terms,
    coefficient_term,
    dof_coords,
    matrix_at,
    l2_error_against_function,
    prolongation_matrix,
    use_cell_rule,
)

PI2_2 = 19.739208802178717  # 2*pi^2, smallest Dirichlet Laplace eigenvalue


def exact_ground_mode(x):
    # L2(D)-normalized first eigenfunction of the Dirichlet Laplacian
    return 2.0 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])


def mean_pencil(mesh):
    """K_0 formed from the package's 1D factors, and the assembled M."""
    return matrix_at(build_parametric_operator(mesh)), assemble_mass(mesh)


def smallest_eig(K, M, k=1):
    vals, vecs = spla.eigsh(K, k=k, M=M, sigma=0, which="LM")
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


class TestMesh:
    def test_dof_counts(self):
        assert build_mesh(2, 1).ndof == 1
        assert build_mesh(2, 2).ndof == 9
        assert build_mesh(8, 2).ndof == 225
        assert build_mesh(96, 2).ndof == 36481  # (2n-1)^2 overkill scale

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            build_mesh(4, 3)

    def test_dof_coords_interior(self):
        coords = dof_coords(build_mesh(3, 2))
        assert np.all(coords > 0) and np.all(coords < 1)
        assert coords.shape == (25, 2)


class TestMass:
    def test_symmetric_positive_definite(self):
        for order in (1, 2):
            op = build_parametric_operator(build_mesh(4, order))
            A = op.mass_apply(np.eye(op.ndof))
            np.testing.assert_allclose(A, A.T, atol=1e-16)
            assert np.linalg.eigvalsh(A).min() > 0

    def test_total_mass_partition(self):
        # with boundary rows kept, total mass would be the domain area;
        # interior trimming loses a boundary band whose measure shrinks
        # linearly in h
        deficits = []
        for n in (8, 16, 32):
            op = build_parametric_operator(build_mesh(n, 1))
            deficits.append(1.0 - op.mass_apply(np.ones(op.ndof)).sum())
        assert np.all(np.array(deficits) > 0)
        ratios = np.array(deficits[:-1]) / np.array(deficits[1:])
        np.testing.assert_allclose(ratios, 2.0, rtol=0.15)

    def test_interpolates_constant_exactly_inside(self):
        # quadratic elements reproduce x(1-x)y(1-y) exactly
        mesh = build_mesh(5, 2)
        f = lambda x: (x[..., 0] * (1 - x[..., 0])
                       * x[..., 1] * (1 - x[..., 1]))
        dofs = f(dof_coords(mesh))
        assert l2_error_against_function(mesh, dofs, f) < 1e-14


class TestStiffness:
    def test_single_dof_hand_value(self):
        # four bilinear elements around the lone interior node of the 2x2
        # grid each contribute 2/3 to the diagonal
        K, _ = mean_pencil(build_mesh(2, 1))
        np.testing.assert_allclose(K.toarray(), [[8.0 / 3.0]], rtol=1e-14)

    def test_symmetry_all_terms(self):
        # K_0 alone, then K_0 + K_m for each fluctuation term m
        op = build_parametric_operator(build_mesh(4, 2), nterms=5)
        for m in range(6):
            K = matrix_at(op, np.eye(1, 5, m - 1)[0] if m else [])
            np.testing.assert_allclose(K.toarray(), K.toarray().T, atol=1e-14)

    def test_term_norm_decay(self):
        mesh = build_mesh(8, 2)
        K1 = assemble_stiffness(mesh, coefficient_term(1))
        n1 = sp.linalg.norm(K1, "fro")
        for m in range(2, 21):
            Km = assemble_stiffness(mesh, coefficient_term(m))
            ratio = sp.linalg.norm(Km, "fro") / n1
            assert ratio <= ((m + 1) / 2.0) ** (-3.2) * 1.5

    def test_amplitude_sum_uniform_ellipticity(self):
        total = sum(coefficient_amplitude(m, 3.2) for m in range(1, 500))
        assert total < 1.0


class TestParametricOperator:
    def test_center_point_is_mean_matrix(self):
        mesh = build_mesh(4, 2)
        op = build_parametric_operator(mesh, nterms=5)
        K = matrix_at(op, np.zeros(5))
        assert (K != matrix_at(op)).nnz == 0
        K0 = assemble_stiffness(mesh)
        assert abs(K - K0).max() <= 1e-14 * abs(K0).max()

    def test_linearity(self):
        op = build_parametric_operator(build_mesh(4, 2), nterms=5)
        rng = np.random.default_rng(2)
        y = rng.uniform(-1, 1, 5)
        A = matrix_at(op, y) + matrix_at(op, -y)
        np.testing.assert_allclose(A.toarray(),
                                   2 * matrix_at(op).toarray(), atol=1e-13)

    def test_matches_direct_sum(self):
        mesh = build_mesh(4, 2)
        op = build_parametric_operator(mesh, nterms=8)
        terms = assemble_terms(mesh, 8)
        rng = np.random.default_rng(4)
        y = rng.uniform(-1, 1, 8)
        direct = terms[0] + sum(y[m - 1] * terms[m] for m in range(1, 9))
        np.testing.assert_allclose(matrix_at(op, y).toarray(),
                                   direct.toarray(), atol=1e-13)

    def test_positive_definite_at_random_points(self):
        op = build_parametric_operator(build_mesh(8, 1), nterms=10)
        rng = np.random.default_rng(6)
        for _ in range(100):
            y = rng.uniform(-1, 1, 10)
            K = matrix_at(op, y)
            # sparse Cholesky-equivalent check via LU with no pivot growth
            lu = spla.splu(K.tocsc())
            assert np.all(lu.U.diagonal() > 0)

    @pytest.mark.parametrize("n, order, nquad", [(4, 1, None), (4, 2, None),
                                                 (5, 2, 3), (3, 1, 4)])
    def test_separable_factors_reproduce_terms(self, n, order, nquad,
                                               monkeypatch):
        # the separable form is exact for any tensor Gauss rule, not only
        # the package's own
        use_cell_rule(monkeypatch, nquad)
        mesh = build_mesh(n, order)
        op = build_parametric_operator(mesh, nterms=7)
        terms = assemble_terms(mesh, 7, nquad=nquad)
        M, A = op.factors[0]
        assert set(op.axes[1:]) == {0, 1}
        for m, K in enumerate(terms):
            Mm, Am = op.factors[m]
            if op.axes[m] == 0:
                sep = sp.kron(M, Am) + sp.kron(A, Mm)
            else:
                sep = sp.kron(Mm, A) + sp.kron(Am, M)
            # a term the quadrature cancels to roundoff (n=3, m=6) is
            # measured against its amplitude times the mean term
            scale = max(abs(K).max(), coefficient_amplitude(m, op.varsigma)
                        * abs(terms[0]).max())
            assert abs(sep - K).max() <= 1e-14 * scale
        mass = assemble_mass(mesh, nquad)
        assert abs(sp.kron(M, M) - mass).max() <= 1e-14 * abs(mass).max()
        rng = np.random.default_rng(n + order)
        # the mass kernel on the last axis of a vector, a (P, N) block and
        # an (S, k, N) stack
        for shape in [(op.ndof,), (4, op.ndof), (3, 2, op.ndof)]:
            V = rng.standard_normal(shape)
            flat = V.reshape(-1, op.ndof).T
            want = (mass @ flat).T.reshape(shape)
            scale = (abs(mass) @ abs(flat)).max()
            assert abs(op.mass_apply(V) - want).max() <= 1e-14 * scale
        points = [rng.uniform(-1, 1, 7) for _ in range(3)]
        points += [rng.uniform(-1, 1, 3), []]  # short y padded; [] gives K_0
        for y in points:
            direct = terms[0] + sum(
                y[m - 1] * terms[m] for m in range(1, len(y) + 1))
            K = matrix_at(op, y)
            assert K.nnz == direct.nnz
            assert abs(K - direct).max() <= 1e-14 * abs(direct).max()

    def test_shared_pattern(self):
        mesh = build_mesh(4, 2)
        op = build_parametric_operator(mesh, nterms=6)
        want = assemble_mass(mesh)
        rng = np.random.default_rng(3)
        for K in [matrix_at(op)] + [
                matrix_at(op, rng.uniform(-1, 1, 6)) for _ in range(3)]:
            assert np.array_equal(K.indptr, want.indptr)
            assert np.array_equal(K.indices, want.indices)


class TestMeanEigenbasis:
    MESHES = [(2, 1), (4, 1), (4, 2), (16, 1), (16, 2), (48, 2)]

    @pytest.mark.parametrize("n, order", MESHES)
    def test_generalized_eigenpairs(self, n, order):
        # A Q = M Q diag(lam) and Q^T M Q = I, lam ascending and equal to
        # scipy's generalized eigh (largest 1D size here: 95)
        op = build_parametric_operator(build_mesh(n, order))
        M, A = op.factors[0]
        lam, Q = op.mean_eigenbasis
        assert np.abs(A @ Q - (M @ Q) * lam).max() <= 1e-13 * np.abs(A).max()
        np.testing.assert_allclose(Q.T @ M @ Q, np.eye(len(Q)), rtol=0.0,
                                   atol=1e-14)
        assert np.all(np.diff(lam) > 0.0)
        np.testing.assert_allclose(lam, scipy.linalg.eigh(A, M)[0],
                                   rtol=1e-12)

    @pytest.mark.parametrize("n, order", [(48, 2), (96, 1)])
    def test_smallest_modes_to_roundoff(self, n, order):
        # the sweep's mean term and eigenvalue rest on the smallest modes:
        # their residuals, taken in long double, sit at the floor that
        # rounding Q to double leaves (4e-13 here), where a plain eigh
        # leaves 4e-12, and lam matches their Rayleigh quotients
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double here")
        op = build_parametric_operator(build_mesh(n, order))
        M, A = op.factors[0].astype(np.longdouble)
        lam, Q = op.mean_eigenbasis
        Q = Q[:, :3].astype(np.longdouble)
        AQ, MQ = A @ Q, M @ Q
        R = AQ - MQ * lam[:3]
        assert np.all(np.linalg.norm(R.astype(float), axis=0)
                      <= 1e-12 * lam[:3]
                      * np.linalg.norm(MQ.astype(float), axis=0))
        rq = (np.sum(Q * AQ, axis=0) / np.sum(Q * MQ, axis=0)).astype(float)
        np.testing.assert_allclose(lam[:3], rq, rtol=1e-13)

    @pytest.mark.parametrize("n, order", MESHES)
    def test_coordinates_round_trip(self, n, order):
        # to_spectral and to_nodal are inverse to each other, on blocks and
        # on stacks, along the last axis
        op = build_parametric_operator(build_mesh(n, order))
        rng = np.random.default_rng(5)
        for V in (rng.standard_normal((3, op.ndof)),
                  rng.standard_normal((2, 3, op.ndof))):
            for there, back in ((op.to_spectral, op.to_nodal),
                                (op.to_nodal, op.to_spectral)):
                W = back(there(V))
                assert W.shape == V.shape
                assert np.abs(W - V).max() <= 1e-14 * np.abs(V).max()


class TestSpatialConvergence:
    def test_eigenvalue_rate_order2(self):
        errs = []
        for n in (2, 4, 8, 16):
            mesh = build_mesh(n, 2)
            K, M = mean_pencil(mesh)
            vals, _ = smallest_eig(K, M)
            errs.append(abs(vals[0] - PI2_2))
        rates = np.log2(np.array(errs)[:-1] / np.array(errs)[1:])
        assert np.all(rates > 3.5)  # h^4 for biquadratic elements

    def test_eigenfunction_rate_order2(self):
        errs = []
        for n in (2, 4, 8, 16):
            mesh = build_mesh(n, 2)
            K, M = mean_pencil(mesh)
            _, vecs = smallest_eig(K, M)
            u = vecs[:, 0]
            u /= np.sqrt(u @ (M @ u))
            if u[np.argmax(np.abs(u))] < 0:
                u = -u
            errs.append(l2_error_against_function(mesh, u, exact_ground_mode))
        rates = np.log2(np.array(errs)[:-1] / np.array(errs)[1:])
        assert np.all(rates > 2.5)  # h^3 for biquadratic elements

    def test_eigenvalue_rate_order1(self):
        errs = []
        for n in (4, 8, 16, 32):
            mesh = build_mesh(n, 1)
            K, M = mean_pencil(mesh)
            vals, _ = smallest_eig(K, M)
            errs.append(abs(vals[0] - PI2_2))
        rates = np.log2(np.array(errs)[:-1] / np.array(errs)[1:])
        assert np.all(rates > 1.7)  # h^2 for bilinear elements


def prolong(coarse, fine, V):
    """The spatial study's prolongation: each coarse (n, n) slice X along
    the last axis of V becomes P1 X P1^T."""
    P1 = prolongation_1d(coarse, fine)
    nc = P1.shape[1]
    return (P1 @ V.reshape(-1, nc, nc) @ P1.T).reshape(len(V), -1)


NESTED = [(order, nc, nf) for order in (1, 2)
          for nc, nf in ((2, 4), (3, 9), (4, 16), (4, 4))]


class TestProlongation:
    def test_exact_embedding(self):
        # a coarse FE function is reproduced exactly on a nested fine mesh
        coarse = build_mesh(4, 2)
        fine = build_mesh(8, 2)
        rng = np.random.default_rng(8)
        uc = rng.standard_normal((1, coarse.ndof))
        # compare L2 norms: ||uc||_{L2} computed on either mesh must agree
        nc = np.sum(uc * build_parametric_operator(coarse).mass_apply(uc))
        uf = prolong(coarse, fine, uc)
        nf = np.sum(uf * build_parametric_operator(fine).mass_apply(uf))
        assert nf == pytest.approx(nc, rel=1e-12)

    @pytest.mark.parametrize("order,nc,nf", NESTED)
    def test_blocks_match_sparse_oracle(self, order, nc, nf):
        coarse, fine = build_mesh(nc, order), build_mesh(nf, order)
        V = np.random.default_rng(nc * nf + order).standard_normal(
            (5, coarse.ndof))
        want = (prolongation_matrix(coarse, fine) @ V.T).T
        got = prolong(coarse, fine, V)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("order,nc,nf", NESTED)
    def test_kron_of_factor_is_oracle_matrix(self, order, nc, nf):
        coarse, fine = build_mesh(nc, order), build_mesh(nf, order)
        P1 = prolongation_1d(coarse, fine)
        want = prolongation_matrix(coarse, fine).toarray()
        np.testing.assert_allclose(sp.kron(P1, P1).toarray(), want,
                                   rtol=0, atol=1e-14)

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            prolongation_1d(build_mesh(3, 2), build_mesh(8, 2))
        with pytest.raises(ValueError):
            prolongation_1d(build_mesh(4, 1), build_mesh(8, 2))

    def test_identity_on_same_mesh(self):
        mesh = build_mesh(4, 2)
        np.testing.assert_allclose(prolongation_1d(mesh, mesh),
                                   np.eye(mesh.n * mesh.order - 1),
                                   atol=1e-13)


def test_quadrature_knob_changes_high_frequency_terms_little(monkeypatch):
    # raising the rule refines oscillatory-term integrals; the change is
    # bounded by the tiny term amplitude
    mesh = build_mesh(8, 2)
    default = build_parametric_operator(mesh, nterms=30)
    use_cell_rule(monkeypatch, 10)
    fine = build_parametric_operator(mesh, nterms=30)
    for m in (15, 30):
        y = np.eye(1, 30, m - 1)[0]
        K_default, K_fine = matrix_at(default, y), matrix_at(fine, y)
        diff = sp.linalg.norm(K_default - K_fine, "fro")
        assert diff < coefficient_amplitude(m, 3.2) * 50
