"""Tests for uniform-grid FEM assembly on the unit square."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chaoseig.fem import (
    assemble_mass,
    assemble_stiffness,
    build_mesh,
    build_parametric_operator,
    coefficient_amplitude,
    coefficient_term,
    l2_error_against_function,
    prolongation_matrix,
)

PI2_2 = 19.739208802178717  # 2*pi^2, smallest Dirichlet Laplace eigenvalue


def exact_ground_mode(x):
    # L2(D)-normalized first eigenfunction of the Dirichlet Laplacian
    return 2.0 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])


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
        mesh = build_mesh(3, 2)
        assert np.all(mesh.dof_coords > 0) and np.all(mesh.dof_coords < 1)
        assert mesh.dof_coords.shape == (25, 2)


class TestMass:
    def test_symmetric_positive_definite(self):
        for order in (1, 2):
            M = assemble_mass(build_mesh(4, order))
            A = M.toarray()
            np.testing.assert_allclose(A, A.T, atol=1e-16)
            assert np.linalg.eigvalsh(A).min() > 0

    def test_total_mass_partition(self):
        # with boundary rows kept, total mass would be the domain area;
        # interior trimming loses a boundary band whose measure shrinks
        # linearly in h
        deficits = []
        for n in (8, 16, 32):
            M = assemble_mass(build_mesh(n, 1))
            deficits.append(1.0 - M.sum())
        assert np.all(np.array(deficits) > 0)
        ratios = np.array(deficits[:-1]) / np.array(deficits[1:])
        np.testing.assert_allclose(ratios, 2.0, rtol=0.15)

    def test_interpolates_constant_exactly_inside(self):
        # quadratic elements reproduce x(1-x)y(1-y) exactly
        mesh = build_mesh(5, 2)
        f = lambda x: (x[..., 0] * (1 - x[..., 0])
                       * x[..., 1] * (1 - x[..., 1]))
        dofs = f(mesh.dof_coords)
        assert l2_error_against_function(mesh, dofs, f) < 1e-14


class TestStiffness:
    def test_single_dof_hand_value(self):
        # four bilinear elements around the lone interior node of the 2x2
        # grid each contribute 2/3 to the diagonal
        K = assemble_stiffness(build_mesh(2, 1))
        np.testing.assert_allclose(K.toarray(), [[8.0 / 3.0]], rtol=1e-14)

    def test_symmetry_all_terms(self):
        mesh = build_mesh(4, 2)
        for m in range(6):
            K = assemble_stiffness(mesh, coefficient_term(m) if m else None)
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
        op = build_parametric_operator(build_mesh(4, 2), nterms=5)
        K = op.matrix_at(np.zeros(5))
        assert (K != op.stiffness[0]).nnz == 0

    def test_linearity(self):
        op = build_parametric_operator(build_mesh(4, 2), nterms=5)
        rng = np.random.default_rng(2)
        y = rng.uniform(-1, 1, 5)
        A = op.matrix_at(y) + op.matrix_at(-y)
        np.testing.assert_allclose(A.toarray(),
                                   2 * op.stiffness[0].toarray(), atol=1e-13)

    def test_matches_direct_sum(self):
        op = build_parametric_operator(build_mesh(4, 2), nterms=8)
        rng = np.random.default_rng(4)
        y = rng.uniform(-1, 1, 8)
        direct = op.stiffness[0] + sum(
            y[m - 1] * op.stiffness[m] for m in range(1, 9))
        np.testing.assert_allclose(op.matrix_at(y).toarray(),
                                   direct.toarray(), atol=1e-13)

    def test_positive_definite_at_random_points(self):
        op = build_parametric_operator(build_mesh(8, 1), nterms=10)
        rng = np.random.default_rng(6)
        for _ in range(100):
            y = rng.uniform(-1, 1, 10)
            K = op.matrix_at(y)
            # sparse Cholesky-equivalent check via LU with no pivot growth
            lu = spla.splu(K.tocsc())
            assert np.all(lu.U.diagonal() > 0)

    @pytest.mark.parametrize("n, order, nquad", [(4, 1, None), (4, 2, None),
                                                 (5, 2, 3), (3, 1, 4)])
    def test_separable_factors_reproduce_terms(self, n, order, nquad):
        op = build_parametric_operator(build_mesh(n, order), nterms=7,
                                       nquad=nquad)
        M, A = op.factors[0]
        assert set(op.axes[1:]) == {0, 1}
        for m, K in enumerate(op.stiffness):
            Mm, Am = op.factors[m]
            if op.axes[m] == 0:
                sep = sp.kron(M, Am) + sp.kron(A, Mm)
            else:
                sep = sp.kron(Mm, A) + sp.kron(Am, M)
            # a term the quadrature cancels to roundoff (n=3, m=6) is
            # measured against its amplitude times the mean term
            scale = max(abs(K).max(), coefficient_amplitude(m, op.varsigma)
                        * abs(op.stiffness[0]).max())
            assert abs(sep - K).max() <= 1e-14 * scale
        mass = sp.kron(M, M)
        assert abs(mass - op.mass).max() <= 1e-14 * abs(op.mass).max()

    def test_shared_pattern(self):
        op = build_parametric_operator(build_mesh(4, 2), nterms=6)
        for K in op.stiffness[1:]:
            assert np.array_equal(K.indptr, op.stiffness[0].indptr)
            assert np.array_equal(K.indices, op.stiffness[0].indices)


class TestSpatialConvergence:
    def test_eigenvalue_rate_order2(self):
        errs = []
        for n in (2, 4, 8, 16):
            mesh = build_mesh(n, 2)
            K = assemble_stiffness(mesh)
            M = assemble_mass(mesh)
            vals, _ = smallest_eig(K, M)
            errs.append(abs(vals[0] - PI2_2))
        rates = np.log2(np.array(errs)[:-1] / np.array(errs)[1:])
        assert np.all(rates > 3.5)  # h^4 for biquadratic elements

    def test_eigenfunction_rate_order2(self):
        errs = []
        for n in (2, 4, 8, 16):
            mesh = build_mesh(n, 2)
            K = assemble_stiffness(mesh)
            M = assemble_mass(mesh)
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
            K = assemble_stiffness(mesh)
            M = assemble_mass(mesh)
            vals, _ = smallest_eig(K, M)
            errs.append(abs(vals[0] - PI2_2))
        rates = np.log2(np.array(errs)[:-1] / np.array(errs)[1:])
        assert np.all(rates > 1.7)  # h^2 for bilinear elements


class TestProlongation:
    def test_exact_embedding(self):
        # a coarse FE function is reproduced exactly on a nested fine mesh
        coarse = build_mesh(4, 2)
        fine = build_mesh(8, 2)
        P = prolongation_matrix(coarse, fine)
        rng = np.random.default_rng(8)
        uc = rng.standard_normal(coarse.ndof)
        Mf = assemble_mass(fine)
        # compare L2 norms: ||uc||_{L2} computed on either mesh must agree
        Mc = assemble_mass(coarse)
        nc = uc @ (Mc @ uc)
        uf = P @ uc
        nf = uf @ (Mf @ uf)
        assert nf == pytest.approx(nc, rel=1e-12)

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            prolongation_matrix(build_mesh(3, 2), build_mesh(8, 2))
        with pytest.raises(ValueError):
            prolongation_matrix(build_mesh(4, 1), build_mesh(8, 2))

    def test_identity_on_same_mesh(self):
        mesh = build_mesh(4, 2)
        P = prolongation_matrix(mesh, mesh)
        np.testing.assert_allclose(P.toarray(), np.eye(mesh.ndof), atol=1e-13)


def test_quadrature_knob_changes_high_frequency_terms_little():
    # raising the rule refines oscillatory-term integrals; the change is
    # bounded by the tiny term amplitude
    mesh = build_mesh(8, 2)
    for m in (15, 30):
        K_default = assemble_stiffness(mesh, coefficient_term(m))
        K_fine = assemble_stiffness(mesh, coefficient_term(m), nquad=10)
        diff = sp.linalg.norm(K_default - K_fine, "fro")
        assert diff < coefficient_amplitude(m, 3.2) * 50
