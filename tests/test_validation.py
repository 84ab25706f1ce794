"""Reference-solver checks: dense eigensolves, quadrature statistics.

The pointwise solvers are themselves oracles for the chaos modules, so
they get cross-validated here: the batched eigensolver of `validation`
against scipy's dense generalized eigensolver and the sparse-LU block
inverse iteration of `oracles`, that one against the dense solver too,
and Monte Carlo against tensor-quadrature statistics on small meshes.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoseig import validation
from chaoseig.fem import build_mesh, build_parametric_operator
from chaoseig.legendre import evaluate_expansion
from chaoseig.multiindex import generate_index_set_by_size
from chaoseig.validation import (
    PointwiseStallError,
    angle_statistics,
    coefficient_decay,
    monte_carlo_statistics,
    overlap_permutation,
    pointwise_eigenpairs,
    pointwise_error,
    subspace_angle,
)
from oracles import (
    assemble_mass,
    assemble_stiffness,
    dense_generalized_eigenpairs,
    fix_signs,
    matrix_at,
    nodal_columns,
    smallest_eigenpairs,
    spectral_columns,
)


@functools.lru_cache(maxsize=None)
def operator(n, order, nterms=4):
    return build_parametric_operator(build_mesh(n, order), nterms=nterms)


def assert_sign_convention(X):
    """The first entry of (near-)largest magnitude of each column is
    positive."""
    for j in range(X.shape[1]):
        mags = np.abs(X[:, j])
        assert X[np.flatnonzero(mags >= (1 - 1e-8) * mags.max())[0], j] > 0.0


class TestPointwiseEigenpairs:
    @settings(max_examples=100, deadline=None)
    @given(mesh=st.sampled_from([(3, 1), (4, 1), (2, 2), (3, 2), (4, 2)]),
           count=st.integers(1, 3),
           y=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    def test_matches_dense_oracle(self, mesh, count, y):
        op = operator(*mesh)
        vals, V = pointwise_eigenpairs(op, [y], count)
        M = assemble_mass(op.mesh)
        dvals, dvecs = dense_generalized_eigenpairs(matrix_at(op, y), M,
                                                    count + 1)
        np.testing.assert_allclose(vals[0], dvals[:count], rtol=1e-12)
        X = nodal_columns(op, V[0])
        np.testing.assert_allclose(X.T @ (M @ X), np.eye(count), atol=1e-12)
        # the span is defined where the spectrum has a gap after `count`
        if dvals[count] - dvals[count - 1] > 1e-3 * dvals[count]:
            assert subspace_angle(V[0],
                                  spectral_columns(op, dvecs[:, :count])) \
                >= 1.0 - 1e-12

    def test_degenerate_cluster_at_origin(self):
        # positions 1 and 2 are an exactly degenerate pair at y = 0: the
        # vectors inside it are basis-dependent, the span is not
        op = operator(8, 2)
        K, M = matrix_at(op), assemble_mass(op.mesh)
        dvals, dvecs = dense_generalized_eigenpairs(K, M, 3)
        D = spectral_columns(op, dvecs)
        for count in (2, 3):
            vals, V = pointwise_eigenpairs(op, np.zeros((1, 4)), count)
            np.testing.assert_allclose(vals[0], dvals[:count], rtol=1e-12)
            assert subspace_angle(V[0][:, :1], D[:, :1]) >= 1.0 - 1e-12
            # each vector past the ground mode lies in the degenerate pair
            X = nodal_columns(op, V[0])
            inside = dvecs[:, 1:] @ (dvecs[:, 1:].T @ (M @ X[:, 1:]))
            assert np.abs(inside - X[:, 1:]).max() <= 1e-9
        assert subspace_angle(V[0][:, 1:], D[:, 1:]) >= 1.0 - 1e-12

    def test_chunks_give_the_pointwise_values(self, monkeypatch):
        # a budget of 3 points per chunk for one vector at N = 49
        op = operator(4, 2)
        monkeypatch.setattr(validation, "_CHUNK_ENTRIES", 3 * 3 * op.ndof)
        assert len(validation._chunks(op, np.zeros((10, 4)), 1)) == 4
        Y = np.random.default_rng(8).uniform(-1.0, 1.0, (10, 4))
        vals, V = pointwise_eigenpairs(op, Y, 1)
        for s, y in enumerate(Y):
            one, W = pointwise_eigenpairs(op, y[None], 1)
            np.testing.assert_allclose(vals[s], one[0], rtol=1e-13)
            np.testing.assert_allclose(V[s], W[0], atol=1e-9)

    def test_short_points_are_padded(self):
        op = operator(4, 1)
        a, _ = pointwise_eigenpairs(op, [[0.5, -0.25]], 2)
        b, _ = pointwise_eigenpairs(op, [[0.5, -0.25, 0.0, 0.0]], 2)
        np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError, match="points"):
            pointwise_eigenpairs(op, np.zeros((1, 5)), 1)
        with pytest.raises(ValueError, match="count"):
            pointwise_eigenpairs(op, np.zeros((1, 4)), 0)

    def test_stall_raises_named_error(self, monkeypatch):
        op = operator(8, 2)
        Y = np.full((2, 4), 0.9)
        monkeypatch.setattr(validation, "_MAXITER", 1)
        with pytest.raises(PointwiseStallError, match="2 of 2 points"):
            pointwise_eigenpairs(op, Y, 1, tol=1e-12)
        assert issubclass(PointwiseStallError, RuntimeError)


class TestSmallestEigenpairs:
    def test_agrees_with_dense_eigh(self):
        op = operator(4, 2, nterms=0)  # N = 49
        M = assemble_mass(op.mesh)
        vals, vecs = smallest_eigenpairs(matrix_at(op), M, 4, tol=1e-12)
        dvals, dvecs = dense_generalized_eigenpairs(matrix_at(op), M, 4)
        np.testing.assert_allclose(vals, dvals, rtol=1e-10)
        dvecs = fix_signs(dvecs)
        # positions 1 and 2 are an exactly degenerate pair on the square:
        # individual columns are basis-dependent there, the span is not
        for j in (0, 3):
            d = vecs[:, j] - dvecs[:, j] / np.sqrt(
                dvecs[:, j] @ (M @ dvecs[:, j]))
            assert np.sqrt(abs(d @ (M @ d))) <= 1e-8
        assert subspace_angle(spectral_columns(op, vecs[:, 1:3]),
                              spectral_columns(op, dvecs[:, 1:3])) \
            >= 1.0 - 1e-10

    def test_orthonormal_and_resolved_at_random_points(self):
        op = operator(8, 1)
        rng = np.random.default_rng(5)
        M = assemble_mass(op.mesh)
        for _ in range(40):
            y = rng.uniform(-1.0, 1.0, op.nterms)
            K = matrix_at(op, y)
            vals, X = smallest_eigenpairs(K, M, 3, tol=1e-10)
            np.testing.assert_allclose(X.T @ (M @ X), np.eye(3), atol=1e-9)
            assert np.all(np.diff(vals) >= 0.0)
            R = K @ X - (M @ X) * vals[None, :]
            assert np.linalg.norm(R) <= 1e-7 * vals[0]

    def test_deterministic_given_seed(self):
        op = operator(4, 1, nterms=0)
        v1 = smallest_eigenpairs(matrix_at(op), assemble_mass(op.mesh), 2)
        v2 = smallest_eigenpairs(matrix_at(op), assemble_mass(op.mesh), 2)
        np.testing.assert_array_equal(v1[1], v2[1])

    def test_sign_convention(self):
        op = operator(4, 2, nterms=0)
        _, X = smallest_eigenpairs(matrix_at(op), assemble_mass(op.mesh), 3)
        assert_sign_convention(X)

    def test_count_validation(self):
        op = operator(2, 1, nterms=0)
        with pytest.raises(ValueError, match="count"):
            smallest_eigenpairs(matrix_at(op), assemble_mass(op.mesh), 0)


class TestMonteCarlo:
    def test_against_tensor_quadrature(self):
        # 4 active dims, 5-point Gauss per dim: quadrature statistics of an
        # analytic eigenvalue are accurate far beyond the MC standard error
        op = operator(4, 1)
        mc = monte_carlo_statistics(op, nsamples=400, seed=21)
        x, w = np.polynomial.legendre.leggauss(5)
        w = w / 2.0
        vals = []
        wts = []
        M = assemble_mass(op.mesh)
        # quadrature nodes solved by the independent sparse-LU oracle
        for combo in itertools.product(range(5), repeat=4):
            y = np.array([x[c] for c in combo])
            lam, _ = smallest_eigenpairs(matrix_at(op, y), M, 1, tol=1e-11)
            vals.append(lam[0])
            wts.append(np.prod([w[c] for c in combo]))
        vals = np.array(vals)
        wts = np.array(wts)
        qmean = float(wts @ vals)
        qvar = float(wts @ (vals - qmean) ** 2)
        assert abs(mc["eigenvalue_mean"] - qmean) <= 3.0 * mc["se_mean"]
        assert abs(mc["eigenvalue_var"] - qvar) <= 3.0 * mc["se_var"]

    def test_field_statistics_are_plausible(self):
        op = operator(4, 1)
        mc = monte_carlo_statistics(op, nsamples=200, seed=22)
        assert mc["vector_mean"].shape == (op.ndof,)
        # mean field should look like the positive ground mode
        mean = op.to_nodal(mc["vector_mean"])
        assert mean.max() > 1.0
        assert mean.min() > -0.05

    @pytest.mark.parametrize("nsamples", [0, 1])
    def test_too_few_samples_rejected(self, nsamples):
        # one sample has no variance, none has no mean
        with pytest.raises(ValueError, match="at least 2 samples"):
            monte_carlo_statistics(operator(4, 1), nsamples=nsamples)


class TestPointwiseError:
    def test_exact_pair_reports_zero(self):
        op = operator(4, 2, nterms=0)
        aset = generate_index_set_by_size(1)
        lam, v = smallest_eigenpairs(matrix_at(op), assemble_mass(op.mesh),
                                     1, tol=1e-13)
        U = op.to_spectral(v.T)
        mu = np.array([lam[0]])
        rep = pointwise_error(op, aset, U, mu, np.zeros(1))
        assert rep["eigenvalue_error"] <= 1e-9
        assert rep["vector_error"] <= 1e-7
        assert rep["residual"] <= 1e-8
        assert rep["normalization_error"] <= 1e-10
        np.testing.assert_allclose(rep["eigenvalue_ref"], lam[0], rtol=1e-12)

    def test_perturbed_pair_reports_the_perturbation(self):
        op = operator(4, 2, nterms=0)
        aset = generate_index_set_by_size(1)
        lam, v = smallest_eigenpairs(matrix_at(op), assemble_mass(op.mesh),
                                     1, tol=1e-13)
        rep = pointwise_error(op, aset, op.to_spectral(v.T),
                              np.array([lam[0] + 1e-3]), np.zeros(1))
        np.testing.assert_allclose(rep["eigenvalue_error"], 1e-3, rtol=1e-6)

    def test_random_point_with_active_terms(self):
        # away from y = 0 every term enters K(y): the reference eigenvalue
        # and the nodal residual against the assembled pencil
        op = operator(4, 2)
        aset = generate_index_set_by_size(8)
        assert aset.max_dimension >= op.nterms
        rng = np.random.default_rng(9)
        M = assemble_mass(op.mesh)
        lam, v = dense_generalized_eigenpairs(matrix_at(op), M, 1)
        U = 1e-3 * rng.standard_normal((len(aset), op.ndof))
        U[0] += v[:, 0] / np.sqrt(v[:, 0] @ (M @ v[:, 0]))
        mu = 1e-3 * rng.standard_normal(len(aset))
        mu[0] += lam[0]
        y = rng.uniform(-1.0, 1.0, aset.max_dimension)
        rep = pointwise_error(op, aset, op.to_spectral(U), mu, y)
        K = matrix_at(op, y[:op.nterms])
        dvals, _ = dense_generalized_eigenpairs(K, M, 1)
        np.testing.assert_allclose(rep["eigenvalue_ref"], dvals[0],
                                   rtol=1e-12)
        uy = evaluate_expansion(U, aset, y)
        muy = float(evaluate_expansion(mu, aset, y))
        Muy = M @ uy
        want = np.linalg.norm(K @ uy - muy * Muy) / (abs(muy)
                                                     * np.linalg.norm(Muy))
        np.testing.assert_allclose(rep["residual"], want, rtol=1e-10)


class TestSubspaceAngle:
    def test_self_alignment_is_one(self):
        op = operator(4, 2, nterms=0)
        _, X = smallest_eigenpairs(matrix_at(op), assemble_mass(op.mesh), 3)
        X = spectral_columns(op, X)
        assert subspace_angle(X, X) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_remixing(self):
        op = operator(4, 2, nterms=0)
        _, X = smallest_eigenpairs(matrix_at(op), assemble_mass(op.mesh), 3)
        X = spectral_columns(op, X)
        rng = np.random.default_rng(31)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A = rng.standard_normal((op.ndof, 3))
        t1 = subspace_angle(A, X)
        t2 = subspace_angle(A @ Q, X @ np.diag([1.0, -1.0, 1.0]))
        np.testing.assert_allclose(t1, t2, rtol=1e-10)

    def test_orthogonal_spans_score_zero(self):
        op = operator(4, 2, nterms=0)
        _, X = smallest_eigenpairs(matrix_at(op), assemble_mass(op.mesh), 4)
        X = spectral_columns(op, X)
        assert subspace_angle(X[:, :2], X[:, 2:]) <= 1e-12
        # one shared direction is not enough: the determinant still vanishes
        assert subspace_angle(X[:, :2], X[:, 1:3]) <= 1e-10

    def test_stacks_compare_pairwise(self):
        op = operator(4, 2, nterms=0)
        rng = np.random.default_rng(33)
        B1 = rng.standard_normal((3, 2, op.ndof, 2))
        B2 = rng.standard_normal((2, op.ndof, 2))
        theta = subspace_angle(B1, B2)
        assert theta.shape == (3, 2)
        for i, j in itertools.product(range(3), range(2)):
            np.testing.assert_allclose(
                theta[i, j], subspace_angle(B1[i, j], B2[j]), rtol=1e-13)

    def test_statistics_rank_aligned_above_random(self):
        # the ground mode is isolated, so its parameter dependence is mild:
        # the unperturbed basis scores near one, a noisy copy scores lower
        op = operator(4, 1)
        aset = generate_index_set_by_size(5)
        _, X = smallest_eigenpairs(matrix_at(op), assemble_mass(op.mesh), 1)
        P, N = len(aset), op.ndof
        good = np.zeros((P, N, 1))
        good[0] = spectral_columns(op, X)
        rng = np.random.default_rng(32)
        noisy = good + 0.5 * rng.standard_normal(good.shape)
        mean, var = angle_statistics(op, aset, [noisy, good], npoints=16,
                                     seed=7)
        assert mean.shape == var.shape == (2,)
        assert 0.0 <= mean.min() and mean.max() <= 1.0
        assert mean[1] > mean[0]
        assert mean[1] > 0.95

    def test_statistics_track_a_whole_cluster(self):
        # a three-column basis covers the degenerate pair completely, so
        # the span is stable in the parameter even though the individual
        # vectors inside the cluster rotate
        op = operator(4, 1)
        aset = generate_index_set_by_size(5)
        _, X = smallest_eigenpairs(matrix_at(op), assemble_mass(op.mesh), 3)
        good = np.zeros((len(aset), op.ndof, 3))
        good[0] = spectral_columns(op, X)
        mean, _ = angle_statistics(op, aset, [good], npoints=8, seed=9)
        assert mean[0] > 0.9


class TestOverlapPermutation:
    def test_swap_across_the_first_parameter(self):
        # the first fluctuation weights the x-direction, splitting the
        # degenerate second/third modes with a sign that follows y_1
        op = operator(8, 2, nterms=1)
        perm, la, lb = overlap_permutation(op, [-1.0], [1.0])
        np.testing.assert_array_equal(perm, [1, 0])
        assert la[0] < la[1] and lb[0] < lb[1]

    def test_identity_without_sweep(self):
        op = operator(8, 2, nterms=1)
        perm, _, _ = overlap_permutation(op, [0.5], [0.6])
        np.testing.assert_array_equal(perm, [0, 1])


class TestSignContract:
    def test_callers_ignore_the_solver_signs(self, monkeypatch):
        # every caller aligns a pointwise vector by overlap or reads
        # something the sign does not change: flipping all of them must
        # leave the results as they are
        op = operator(8, 2, nterms=1)
        aset = generate_index_set_by_size(3)
        snap = np.zeros((len(aset), op.ndof, 2))
        snap[0] = op.mean_eigenpairs(2)[1]
        U = snap[:, :, 0]
        mu = np.array([op.mean_values.min(), 0.5, 0.0])

        def results():
            mc = monte_carlo_statistics(op, nsamples=40, seed=4)
            return (
                [mc[k] for k in sorted(mc)],
                pointwise_error(op, aset, U, mu, [0.3, -0.2]),
                angle_statistics(op, aset, [snap], npoints=8, seed=5),
                overlap_permutation(op, [-1.0], [1.0]))

        plain = results()
        solve = validation.pointwise_eigenpairs

        def flipped(*args, **kwargs):
            vals, vecs = solve(*args, **kwargs)
            return vals, -vecs

        monkeypatch.setattr(validation, "pointwise_eigenpairs", flipped)
        again = results()
        for want, got in zip(plain[0], again[0]):
            np.testing.assert_array_equal(got, want)
        assert again[1] == plain[1]
        np.testing.assert_allclose(again[2], plain[2], rtol=1e-14, atol=0)
        for want, got in zip(plain[3], again[3]):
            np.testing.assert_array_equal(got, want)


class TestEigenvalueRatio:
    def test_laplacian_gap_ratios(self):
        # the exact mean eigenvalues from the 1D factors agree with a dense
        # solve on the 2D-assembled K_0 and M; their gap ratios approach
        # the unit-square Dirichlet values 2, 5, 5, 8 (times pi^2)
        mesh = build_mesh(16, 2)
        op = build_parametric_operator(mesh)
        vals, _ = op.mean_eigenpairs(4)
        dvals, _ = dense_generalized_eigenpairs(assemble_stiffness(mesh),
                                                assemble_mass(mesh), 4)
        np.testing.assert_allclose(vals, dvals, rtol=1e-12)
        np.testing.assert_allclose(vals[0] / vals[1], 0.4, atol=1e-4)
        np.testing.assert_allclose(vals[2] / vals[3], 0.625, atol=1e-4)


class TestCoefficientDecay:
    def test_scalar_and_block_magnitudes(self):
        aset = generate_index_set_by_size(5)
        rep = coefficient_decay(aset, np.array([3.0, -2.0, 1.0, -0.5, 0.1]))
        np.testing.assert_array_equal(rep["magnitudes"],
                                      [3.0, 2.0, 1.0, 0.5, 0.1])
        np.testing.assert_array_equal(rep["sorted"],
                                      np.sort(rep["magnitudes"])[::-1])
        # a block of coordinates: the plain norm of each row
        rep = coefficient_decay(aset, np.ones((5, 9)))
        np.testing.assert_array_equal(rep["magnitudes"], np.full(5, 3.0))

    def test_mass_weighted_norms(self):
        op = operator(2, 2, nterms=0)
        aset = generate_index_set_by_size(2)
        C = np.ones((2, op.ndof))
        rep = coefficient_decay(aset, op.to_spectral(C))
        want = np.sqrt(C[0] @ (assemble_mass(op.mesh) @ C[0]))
        np.testing.assert_allclose(rep["magnitudes"], [want, want])

    def test_count_mismatch(self):
        aset = generate_index_set_by_size(5)
        with pytest.raises(ValueError, match="does not match"):
            coefficient_decay(aset, np.ones(4))
