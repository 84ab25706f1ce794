"""Kronecker kernels against explicit dense materializations.

Every structured operation (blockwise operator apply, preconditioned CG,
weighted Gram contraction, Galerkin multiplication factor, Newton
normalization) is checked against a dense oracle built with np.kron or
einsum over the full triple-product tensor.
"""

import numpy as np
import pytest
import scipy.linalg

from chaoseig import galerkin
from chaoseig.fem import build_mesh, build_parametric_operator
from chaoseig.galerkin import (
    DeltaFactor,
    GalerkinSystem,
    IndefiniteOperatorError,
    KroneckerOperator,
    MeanPreconditioner,
    NearSingularError,
    SeparableTerms,
    build_system,
    delta_solve,
    newton_normalize,
    pcg_solve,
    tensor_dot,
    tensor_norm,
    weighted_gram,
)
from chaoseig.legendre import evaluate_expansion
from oracles import (
    dense_generalized_eigenpairs,
    materialize_kronecker,
    tensor_grid,
    triple_tensor_dense,
)


def small_system(n=2, size=6):
    return build_system(n=n, order=2, size=size)


def random_block(sys, rng, scale_by_weight=False):
    V = rng.standard_normal((sys.P, sys.N))
    if scale_by_weight:
        V *= np.asarray(sys.aset.weights)[:, None]
    return V


class TestTensorNorm:
    def test_against_flat_kron_norm(self):
        sys = small_system()
        rng = np.random.default_rng(11)
        V = random_block(sys, rng)
        Md = sys.mass.toarray()
        big = np.kron(np.eye(sys.P), Md)
        v = V.ravel()
        np.testing.assert_allclose(tensor_norm(V, sys.mass),
                                   np.sqrt(v @ big @ v), rtol=1e-13)

    def test_dot_bilinearity(self):
        sys = small_system()
        rng = np.random.default_rng(12)
        V, W, U = (random_block(sys, rng) for _ in range(3))
        lhs = tensor_dot(V, 2.0 * W + U, sys.mass)
        rhs = 2.0 * tensor_dot(V, W, sys.mass) + tensor_dot(V, U, sys.mass)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestKroneckerOperator:
    def test_matches_dense_kron(self):
        sys = small_system()
        op = sys.operator()
        dense = materialize_kronecker(sys.gmats, sys.fem_op.stiffness)
        rng = np.random.default_rng(21)
        for _ in range(4):
            V = random_block(sys, rng)
            got = op.apply(V).ravel()
            want = dense @ V.ravel()
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_shifted_matches_dense(self):
        sys = small_system()
        op = sys.operator(shift=7.5)
        dense = materialize_kronecker(sys.gmats, sys.fem_op.stiffness,
                                      shift=7.5, mass=sys.mass)
        rng = np.random.default_rng(22)
        V = random_block(sys, rng)
        np.testing.assert_allclose(op.apply(V).ravel(), dense @ V.ravel(),
                                   rtol=1e-12, atol=1e-13)

    def test_apply_is_symmetric(self):
        sys = build_system(n=3, order=2, size=12)
        op = sys.operator()
        rng = np.random.default_rng(23)
        V = random_block(sys, rng)
        W = random_block(sys, rng)
        left = float(np.sum(W * op.apply(V)))
        right = float(np.sum(V * op.apply(W)))
        np.testing.assert_allclose(left, right, rtol=1e-12)

    @pytest.mark.parametrize("order, nquad", [(1, None), (2, None), (1, 4),
                                              (2, 5)])
    @pytest.mark.parametrize("shift", [0.0, 7.5])
    @pytest.mark.parametrize("rows_per_chunk", [None, 1, 3])
    def test_separable_apply_matches_assembled(self, order, nquad, shift,
                                               rows_per_chunk, monkeypatch):
        sys = build_system(n=3, order=order, size=12, nquad=nquad)
        assert sys.fem_op.nterms >= 2  # terms along both axes
        if rows_per_chunk is not None:
            # split terms across chunks and chunks across terms
            slice_bytes = sys.N * 8
            monkeypatch.setattr(galerkin, "_CHUNK_BYTES",
                                rows_per_chunk * slice_bytes)
            assert sys.terms.step == rows_per_chunk
        dense = materialize_kronecker(sys.gmats, sys.fem_op.stiffness,
                                      shift=shift, mass=sys.mass)
        V = random_block(sys, np.random.default_rng(26))
        got = sys.operator(shift).apply(V).ravel()
        want = dense @ V.ravel()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_positive_definite_without_shift(self):
        # the default varsigma = 3.2 keeps the amplitude sum zeta(3.2) - 1
        # below one, so a(x,y) > 0 and the energy is positive
        sys = build_system(n=4, order=1, size=12)
        op = sys.operator()
        rng = np.random.default_rng(24)
        for _ in range(50):
            V = random_block(sys, rng)
            assert float(np.sum(V * op.apply(V))) > 0.0

    def test_single_index_set_reduces_to_mean_term(self):
        sys = build_system(n=3, order=1, size=1)
        op = sys.operator()
        rng = np.random.default_rng(25)
        V = random_block(sys, rng)
        want = (sys.fem_op.stiffness[0] @ V.T).T
        np.testing.assert_allclose(op.apply(V), want, rtol=1e-14)

    def test_rejects_wrong_shape(self):
        sys = small_system()
        op = sys.operator()
        with pytest.raises(ValueError, match="block shape"):
            op.apply(np.zeros((sys.P, sys.N + 1)))

    def test_shift_requires_mass(self):
        # the shift term is taken from the 1D mass factors; it must equal
        # shift * (identity (x) assembled mass)
        sys = small_system()
        V = random_block(sys, np.random.default_rng(27))
        diff = (KroneckerOperator(sys.terms).apply(V)
                - KroneckerOperator(sys.terms, shift=1.5).apply(V))
        np.testing.assert_allclose(diff, 1.5 * sys.mass_apply(V),
                                   rtol=1e-12, atol=1e-12)

    def test_rejects_length_mismatch(self):
        sys = small_system()
        with pytest.raises(ValueError, match="per raise matrix"):
            SeparableTerms(sys.gmats[:-1], sys.fem_op)

    def test_operators_share_cached_terms(self):
        sys = small_system()
        a, b = sys.operator(), sys.operator(shift=2.0)
        assert a.terms is b.terms is sys.terms


class TestMeanPreconditioner:
    def test_inverts_mean_term_blockwise(self):
        for sys in (small_system(), build_system(n=4, order=1, size=6)):
            prec = sys.mean_preconditioner()
            rng = np.random.default_rng(31)
            R = random_block(sys, rng)
            X = prec.apply(R)
            K0 = sys.fem_op.stiffness[0].toarray()
            for a in range(sys.P):
                np.testing.assert_allclose(K0 @ X[a], R[a], rtol=1e-11,
                                           atol=1e-12)

    def test_symmetric_positive(self):
        sys = small_system()
        prec = sys.mean_preconditioner()
        rng = np.random.default_rng(32)
        R1 = random_block(sys, rng)
        R2 = random_block(sys, rng)
        s12 = float(np.sum(R1 * prec.apply(R2)))
        s21 = float(np.sum(R2 * prec.apply(R1)))
        np.testing.assert_allclose(s12, s21, rtol=1e-11)
        assert float(np.sum(R1 * prec.apply(R1))) > 0.0

    def test_cached_on_system(self):
        sys = small_system()
        assert sys.mean_preconditioner() is sys.mean_preconditioner()


class TestPcgSolve:
    def test_matches_dense_solve(self):
        sys = small_system()
        op = sys.operator()
        dense = materialize_kronecker(sys.gmats, sys.fem_op.stiffness)
        rng = np.random.default_rng(41)
        B = random_block(sys, rng)
        X, info = pcg_solve(op, B, sys.mean_preconditioner(), tol=1e-13,
                            maxiter=400)
        assert info.converged
        want = np.linalg.solve(dense, B.ravel()).reshape(B.shape)
        np.testing.assert_allclose(X, want, rtol=1e-9, atol=1e-11)

    def test_zero_rhs_short_circuits(self):
        sys = small_system()
        X, info = pcg_solve(sys.operator(), np.zeros((sys.P, sys.N)),
                            sys.mean_preconditioner())
        assert info.converged and info.iterations == 0
        assert not X.any()

    def test_warm_start_at_solution_costs_nothing(self):
        sys = small_system()
        op = sys.operator()
        rng = np.random.default_rng(42)
        B = random_block(sys, rng)
        X, _ = pcg_solve(op, B, sys.mean_preconditioner(), tol=1e-13,
                         maxiter=400)
        _, info = pcg_solve(op, B, sys.mean_preconditioner(), tol=1e-10,
                            maxiter=400, x0=X)
        assert info.iterations == 0

    def test_reports_nonconvergence(self):
        sys = small_system()
        rng = np.random.default_rng(43)
        B = random_block(sys, rng)
        _, info = pcg_solve(sys.operator(), B, sys.mean_preconditioner(),
                            tol=1e-14, maxiter=1)
        assert not info.converged
        assert info.iterations == 1
        assert info.trace.shape == (2,)

    def test_detects_indefiniteness_under_huge_shift(self):
        sys = small_system()
        op = sys.operator(shift=1e6)
        rng = np.random.default_rng(44)
        B = random_block(sys, rng)
        with pytest.raises(IndefiniteOperatorError, match="curvature"):
            pcg_solve(op, B, sys.mean_preconditioner())

    def test_iteration_budget_mean_preconditioned(self):
        # regression bound: the mean-based preconditioner keeps the count
        # small even with 113 active dimensions truncated to the set
        sys = build_system(n=8, order=2, size=31)
        _, v = dense_generalized_eigenpairs(sys.fem_op.stiffness[0],
                                            sys.mass, 1)
        v = v[:, 0]
        v /= np.sqrt(v @ (sys.mass @ v))
        U = np.zeros((sys.P, sys.N))
        U[0] = v
        B = sys.mass_apply(U)
        _, info = pcg_solve(sys.operator(), B, sys.mean_preconditioner(),
                            tol=1e-10, maxiter=30)
        assert info.converged
        assert info.iterations <= 30


class TestWeightedGram:
    def test_against_dense_tensor(self):
        sys = small_system()
        tdense = triple_tensor_dense(sys.aset)
        rng = np.random.default_rng(51)
        V = random_block(sys, rng)
        W = random_block(sys, rng)
        H = V @ (sys.mass @ W.T)
        want = np.einsum("abc,bc->a", tdense, H)
        got = weighted_gram(sys.tt, V, W, sys.mass)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_zero_component_is_tensor_dot(self):
        sys = small_system()
        rng = np.random.default_rng(52)
        V = random_block(sys, rng)
        W = random_block(sys, rng)
        b = weighted_gram(sys.tt, V, W, sys.mass)
        np.testing.assert_allclose(b[0], tensor_dot(V, W, sys.mass),
                                   rtol=1e-12)

    def test_symmetric_in_arguments(self):
        sys = small_system()
        rng = np.random.default_rng(53)
        V = random_block(sys, rng)
        W = random_block(sys, rng)
        np.testing.assert_allclose(weighted_gram(sys.tt, V, W, sys.mass),
                                   weighted_gram(sys.tt, W, V, sys.mass),
                                   rtol=1e-12, atol=1e-14)


class TestDeltaFactor:
    def test_matrix_matches_dense_contraction(self):
        sys = small_system()
        tdense = triple_tensor_dense(sys.aset)
        rng = np.random.default_rng(61)
        s = rng.standard_normal(sys.P) * 0.2
        s[0] = 2.0
        fac = DeltaFactor(sys.tt, s)
        np.testing.assert_allclose(fac.matrix,
                                   np.einsum("abc,b->ac", tdense, s),
                                   rtol=1e-12, atol=1e-13)

    def test_eigenvalues_within_pointwise_range(self):
        # Galerkin projection of multiplication by s(y): the spectrum sits
        # inside the pointwise range of s over the parameter box
        sys = small_system(size=6)
        rng = np.random.default_rng(62)
        for _ in range(5):
            s = rng.uniform(-0.3, 0.3, sys.P)
            s[0] = rng.uniform(1.0, 2.0)
            D = sys.tt.multiply_matrix(s)
            eigs = scipy.linalg.eigvalsh(D)
            pts, _, B = tensor_grid(sys.aset, extra_degree=40)
            svals = s @ B
            lo, hi = svals.min(), svals.max()
            corners = np.array(np.meshgrid(
                *[[-1.0, 1.0]] * sys.aset.max_dimension)).reshape(
                sys.aset.max_dimension, -1).T
            sc = evaluate_expansion(s, sys.aset, corners)
            lo = min(lo, sc.min())
            hi = max(hi, sc.max())
            assert eigs.min() >= lo - 1e-6
            assert eigs.max() <= hi + 1e-6

    def test_solve_round_trip(self):
        sys = small_system()
        rng = np.random.default_rng(63)
        s = rng.standard_normal(sys.P) * 0.1
        s[0] = 1.5
        fac = DeltaFactor(sys.tt, s)
        b = rng.standard_normal(sys.P)
        np.testing.assert_allclose(fac.matrix @ fac.solve(b), b, rtol=1e-11,
                                   atol=1e-12)
        B = rng.standard_normal((sys.P, sys.N))
        np.testing.assert_allclose(fac.matrix @ fac.solve(B), B, rtol=1e-11,
                                   atol=1e-12)

    def test_one_shot_wrapper(self):
        sys = small_system()
        rng = np.random.default_rng(64)
        s = rng.standard_normal(sys.P) * 0.1
        s[0] = 1.5
        b = rng.standard_normal(sys.P)
        np.testing.assert_allclose(delta_solve(sys.tt, s, b),
                                   DeltaFactor(sys.tt, s).solve(b),
                                   rtol=1e-14)

    def test_flags_singular_multiplication(self):
        # unit coefficient on the normalized degree-one mode makes
        # s(y) = 1 + sqrt(3) y_1, which vanishes on the box: on the
        # two-member set the multiplication matrix is exactly singular
        sys = small_system(size=2)
        pos = sys.aset.position(((1, 1),))
        s = np.zeros(sys.P)
        s[0] = 1.0
        s[pos] = 1.0
        with pytest.raises(NearSingularError, match="rcond"):
            DeltaFactor(sys.tt, s)


class TestNewtonNormalize:
    def test_mean_only_block_is_exact(self):
        sys = small_system()
        rng = np.random.default_rng(71)
        V = np.zeros((sys.P, sys.N))
        V[0] = rng.standard_normal(sys.N)
        s, hist = newton_normalize(sys.tt, V, sys.mass)
        np.testing.assert_allclose(s[0], tensor_norm(V, sys.mass),
                                   rtol=1e-13)
        np.testing.assert_allclose(s[1:], 0.0, atol=1e-13)
        assert hist[-1] <= 1e-12 * tensor_norm(V, sys.mass) ** 2

    def test_second_moment_identity(self):
        # component 0 of the defect forces sum(s^2) = ||V||^2 exactly
        sys = small_system()
        rng = np.random.default_rng(72)
        V = random_block(sys, rng, scale_by_weight=True)
        s, _ = newton_normalize(sys.tt, V, sys.mass)
        np.testing.assert_allclose(np.sum(s * s),
                                   tensor_norm(V, sys.mass) ** 2,
                                   rtol=1e-11)

    def test_pointwise_norm_sampling(self):
        # s(y)^2 tracks ||v(y)||_M^2 up to the chaos truncation tail; with
        # weight-scaled coefficients the tail stays a few percent
        sys = build_system(n=2, order=2, size=12)
        rng = np.random.default_rng(73)
        V = random_block(sys, rng, scale_by_weight=True)
        s, _ = newton_normalize(sys.tt, V, sys.mass)
        Y = rng.uniform(-1.0, 1.0, (40, sys.aset.max_dimension))
        svals = evaluate_expansion(s, sys.aset, Y)
        vvals = evaluate_expansion(V, sys.aset, Y)
        norms2 = np.einsum("pn,pn->p", vvals, (sys.mass @ vvals.T).T)
        rel = np.abs(svals ** 2 - norms2) / norms2
        assert np.median(rel) < 0.05
        assert rel.max() < 0.35

    def test_quadratic_tail_and_budget(self):
        sys = small_system(size=12)
        rng = np.random.default_rng(74)
        V = random_block(sys, rng, scale_by_weight=True)
        s, hist = newton_normalize(sys.tt, V, sys.mass, tol=1e-12)
        scale = tensor_norm(V, sys.mass) ** 2
        assert len(hist) - 1 <= 10
        assert hist[-1] <= 1e-12 * scale
        # once inside the contraction region each step squares the residual
        for rk, rk1 in zip(hist[:-1], hist[1:]):
            if rk <= 0.1 * scale:
                assert rk1 <= 50.0 * rk * rk / scale

    def test_residuals_strictly_decrease(self):
        sys = small_system(size=12)
        rng = np.random.default_rng(75)
        V = random_block(sys, rng, scale_by_weight=True)
        _, hist = newton_normalize(sys.tt, V, sys.mass)
        assert np.all(np.diff(hist) < 0)

    def test_rejects_zero_block(self):
        sys = small_system()
        with pytest.raises(ValueError, match="zero block"):
            newton_normalize(sys.tt, np.zeros((sys.P, sys.N)), sys.mass)


class TestBuildSystem:
    def test_shapes_are_consistent(self):
        sys = build_system(n=3, order=2, size=12)
        assert sys.P == len(sys.aset) == sys.tt.size == 12
        assert sys.N == sys.mesh.ndof == (3 * 2 - 1) ** 2
        assert len(sys.gmats) == sys.aset.max_dimension + 1
        assert len(sys.fem_op.stiffness) == len(sys.gmats)

    def test_requires_exactly_one_cardinality_spec(self):
        with pytest.raises(ValueError, match="exactly one"):
            build_system(n=2, order=1)
        with pytest.raises(ValueError, match="exactly one"):
            build_system(n=2, order=1, size=5, eps=0.1)

    def test_eps_route_matches_size_route(self):
        by_eps = build_system(n=2, order=1, eps=0.05)
        by_size = build_system(n=2, order=1, size=len(by_eps.aset))
        assert by_eps.aset.indices == by_size.aset.indices

    def test_max_terms_caps_coefficient_count(self):
        full = build_system(n=2, order=1, size=6)
        capped = build_system(n=2, order=1, size=6, max_terms=2)
        assert full.fem_op.nterms == full.aset.max_dimension
        assert capped.fem_op.nterms == 2
        assert len(capped.gmats) == 3
        assert len(capped.fem_op.stiffness) == 3
        # a cap at or above the active dimension count changes nothing
        loose = build_system(n=2, order=1, size=6, max_terms=50)
        assert loose.fem_op.nterms == full.fem_op.nterms

    def test_max_terms_must_be_positive(self):
        with pytest.raises(ValueError, match="max_terms must be positive"):
            build_system(n=2, order=1, size=6, max_terms=0)
