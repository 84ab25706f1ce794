"""Tests for the normalized Legendre basis and moment tensors."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from chaoseig.legendre import (
    basis_matrix,
    build_triple_tensor,
    eval_univariate_all,
    evaluate_expansion,
    gauss_rule,
    univariate_triple,
)
from chaoseig.multiindex import (
    MultiIndexSet,
    generate_index_set,
    generate_index_set_by_size,
)
from oracles import build_moment_matrices


@pytest.fixture(scope="module")
def small_set():
    return generate_index_set_by_size(6, varsigma=3.2)


@pytest.fixture(scope="module")
def medium_set():
    return generate_index_set_by_size(12, varsigma=3.2)


class TestUnivariate:
    def test_degree_zero_constant(self):
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(eval_univariate_all(0, x)[0], np.ones(7))

    def test_degree_one_at_one(self):
        assert eval_univariate_all(1, 1.0)[1] == pytest.approx(np.sqrt(3),
                                                               abs=1e-15)

    def test_frozen_degree_two_value(self):
        # closed form sqrt(5)(3x^2-1)/2 at x = 0.5 equals -sqrt(5)/8
        assert eval_univariate_all(2, 0.5)[2] == pytest.approx(
            -0.27950849718747371, abs=1e-15)

    def test_matches_numpy_legval(self):
        x = np.linspace(-1, 1, 23)
        for p in range(9):
            np.testing.assert_allclose(
                eval_univariate_all(p, x)[p],
                oracles.legval_normalized(p, x), atol=1e-13)

    def test_orthonormal_by_quadrature(self):
        pmax = 8
        x, w = gauss_rule(pmax + 1)
        V = eval_univariate_all(pmax, x)
        G = (V * w) @ V.T
        np.testing.assert_allclose(G, np.eye(pmax + 1), atol=1e-13)


class TestUnivariateMoments:
    def test_triple_orthonormality_cases(self):
        for p in range(6):
            assert univariate_triple(0, p, p) == pytest.approx(1.0, abs=1e-13)
        assert univariate_triple(0, 0, 1) == 0.0

    def test_triple_frozen_value(self):
        assert univariate_triple(1, 1, 2) == pytest.approx(
            0.89442719099991588, abs=1e-14)

    def test_triple_structural_zeros_exact(self):
        assert univariate_triple(1, 1, 3) == 0.0  # odd sum
        assert univariate_triple(1, 2, 5) == 0.0  # triangle violation
        assert univariate_triple(0, 2, 4) == 0.0

    def test_triple_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = rng.integers(0, 7, size=3)
            v = univariate_triple(a, b, c)
            assert v == univariate_triple(c, a, b) == univariate_triple(b, c, a)

    def test_triple_against_quadrature_oracle(self):
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    x, w = np.polynomial.legendre.leggauss(10)
                    ref = np.sum(w / 2.0 * oracles.legval_normalized(a, x)
                                 * oracles.legval_normalized(b, x)
                                 * oracles.legval_normalized(c, x))
                    assert univariate_triple(a, b, c) == pytest.approx(
                        ref, abs=1e-13)

    def test_raise_frozen_values(self):
        assert oracles.univariate_raise(0) == pytest.approx(
            0.57735026918962576, abs=1e-15)
        assert oracles.univariate_raise(1) == pytest.approx(
            0.51639777949432225, abs=1e-15)

    def test_raise_against_quadrature(self):
        x, w = np.polynomial.legendre.leggauss(12)
        for p in range(6):
            ref = np.sum(w / 2.0 * x * oracles.legval_normalized(p, x)
                         * oracles.legval_normalized(p + 1, x))
            assert oracles.univariate_raise(p) == pytest.approx(ref,
                                                                abs=1e-14)

    def test_raise_off_neighbor_moments_vanish(self):
        x, w = np.polynomial.legendre.leggauss(14)
        for p in range(5):
            for q in range(5):
                if abs(p - q) != 1:
                    val = np.sum(w / 2.0 * x * oracles.legval_normalized(p, x)
                                 * oracles.legval_normalized(q, x))
                    assert abs(val) < 1e-14


class TestMomentMatrices:
    def test_zero_set_identity_only(self):
        aset = generate_index_set(0.999, varsigma=3.2)
        mats = build_moment_matrices(build_triple_tensor(aset))
        assert len(mats) == 1
        np.testing.assert_allclose(mats[0].toarray(), [[1.0]])

    def test_two_member_set(self):
        # {0, e_1} gives the single off-diagonal raise value 1/sqrt(3)
        aset = generate_index_set_by_size(2, varsigma=3.2)
        mats = build_moment_matrices(build_triple_tensor(aset))
        expected = np.array([[0.0, 0.57735026918962576],
                             [0.57735026918962576, 0.0]])
        np.testing.assert_allclose(mats[1].toarray(), expected, atol=1e-15)

    def test_against_tensor_quadrature_oracle(self, medium_set):
        mats = build_moment_matrices(build_triple_tensor(medium_set))
        ref = oracles.raise_matrices_dense(medium_set)
        assert len(mats) == len(ref) + 1
        for m in range(1, len(mats)):
            np.testing.assert_allclose(mats[m].toarray(), ref[m - 1],
                                       atol=1e-12)

    def test_structure(self, medium_set):
        mats = build_moment_matrices(build_triple_tensor(medium_set))
        for G in mats[1:]:
            A = G.toarray()
            np.testing.assert_allclose(A, A.T, atol=0)
            assert np.all(np.diag(A) == 0)
            assert np.max((A != 0).sum(axis=1)) <= 2

    @pytest.mark.parametrize("size", [12, 120])
    def test_slices_match_univariate_raise(self, size):
        # the slice at e_m over sqrt(3) is E[y_m Lam_a Lam_b]: nonzero
        # exactly where a and b differ by one in coordinate m, with value
        # oracles.univariate_raise of the lower degree
        aset = generate_index_set_by_size(size, varsigma=3.2)
        mats = build_moment_matrices(build_triple_tensor(aset))
        assert len(mats) == aset.max_dimension + 1
        for m in range(1, len(mats)):
            ref = np.zeros((len(aset), len(aset)))
            for i, alpha in enumerate(aset.indices):
                d = dict(alpha)
                p = d.get(m, 0)
                d[m] = p + 1
                j = aset.position(tuple(sorted(d.items())))
                if j is not None:
                    ref[i, j] = ref[j, i] = oracles.univariate_raise(p)
            A = mats[m].toarray()
            assert np.array_equal(A != 0, ref != 0)
            np.testing.assert_allclose(A, ref, rtol=1e-15, atol=0)


class TestTripleTensor:
    def test_zero_slice_identity(self, medium_set):
        tt = build_triple_tensor(medium_set)
        np.testing.assert_allclose(oracles.dense_triple_tensor(tt)[0],
                                   np.eye(len(medium_set)), atol=1e-13)

    def test_neighbor_entry_value(self):
        aset = generate_index_set_by_size(8, varsigma=3.2)
        e1 = ((1, 1),)
        e1e1 = ((1, 2),)
        assert e1 in aset and e1e1 in aset
        tt = build_triple_tensor(aset)
        a = aset.position(e1)
        entry = oracles.dense_triple_tensor(tt)[a, aset.position(e1),
                                                aset.position(e1e1)]
        assert entry == pytest.approx(0.89442719099991588, abs=1e-14)

    def test_full_tensor_against_quadrature_oracle(self, small_set):
        tt = build_triple_tensor(small_set)
        ref = oracles.triple_tensor_dense(small_set)
        np.testing.assert_allclose(oracles.dense_triple_tensor(tt), ref,
                                   atol=1e-13)

    def test_full_symmetry(self, medium_set):
        dense = oracles.dense_triple_tensor(build_triple_tensor(medium_set))
        np.testing.assert_allclose(dense, dense.transpose(1, 0, 2), atol=1e-14)
        np.testing.assert_allclose(dense, dense.transpose(2, 1, 0), atol=1e-14)

    def test_contractions_match_dense(self, medium_set):
        tt = build_triple_tensor(medium_set)
        P = len(medium_set)
        rng = np.random.default_rng(11)
        dense = oracles.dense_triple_tensor(tt)
        H = rng.standard_normal((P, P))
        s = rng.standard_normal(P)
        t = rng.standard_normal(P)
        np.testing.assert_allclose(tt.contract_gram(H),
                                   np.einsum("abc,bc->a", dense, H),
                                   atol=1e-12)
        np.testing.assert_allclose(tt.congruence(s, t),
                                   np.einsum("abc,b,c->a", dense, s, t),
                                   atol=1e-12)
        np.testing.assert_allclose(tt.multiply_matrix(s),
                                   np.einsum("abc,a->bc", dense, s),
                                   atol=1e-12)


# random weight sets: 1-6 weights in [0.05, 0.6], threshold in [0.005, 0.3]
WEIGHTS = st.lists(st.floats(0.05, 0.6), min_size=1, max_size=6)
EPS = st.floats(0.005, 0.3)


def assert_matches_pair_scan(aset):
    tt = build_triple_tensor(aset)
    ia, ib, ic, vals = oracles.triple_tensor_pair_scan(aset)
    o = np.lexsort((ic, ib, ia))
    assert np.array_equal(tt.ia, ia[o])
    assert np.array_equal(tt.ib, ib[o])
    assert np.array_equal(tt.ic, ic[o])
    assert tt.values.tobytes() == vals[o].tobytes()


class TestTripleTensorAgainstPairScan:
    # 264 is the reference set, where the pair scan takes about 2 s
    @pytest.mark.parametrize("size", [1, 2, 6, 31, 52, 120, 264])
    def test_rule_sets(self, size):
        assert_matches_pair_scan(generate_index_set_by_size(size,
                                                            varsigma=3.2))

    def test_large_set_is_closed_under_permutations(self):
        # every slot order of an entry is an entry: (a, b, c) = (y + z,
        # x + z, x + y) for a triangle (x, y, z) of splits, in any order
        aset = generate_index_set_by_size(1000, varsigma=3.2)
        tt = build_triple_tensor(aset)
        assert tt.values.size == 35_751
        P = len(aset)
        slots = (tt.ia, tt.ib, tt.ic)
        codes = np.sort((tt.ia * P + tt.ib) * P + tt.ic)
        for i, j, k in itertools.permutations(range(3)):
            moved = (slots[i] * P + slots[j]) * P + slots[k]
            assert np.array_equal(np.sort(moved), codes)

    def test_large_build_holds_no_quadratic_intermediate(self):
        # the build needs about 12 MB; each P x P int64 array would add 8 MB
        aset = generate_index_set_by_size(1000, varsigma=3.2)
        tracemalloc.start()
        try:
            build_triple_tensor(aset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_set_missing_a_split_part_is_rejected(self):
        # ((1, 2),) = ((1, 1),) + ((1, 1),), and ((1, 1),) is no member: the
        # set itself is rejected, before any tensor is built from it
        with pytest.raises(ValueError, match=r"\(\(1, 1\),\) is missing"):
            MultiIndexSet([(), ((1, 2),)], [1.0, 0.5], 0.1)

    def test_one_dimensional_set(self):
        # one dimension of degree 19: every member is a split part of each
        # higher one, and the univariate table is at its largest
        assert_matches_pair_scan(generate_index_set(1e-6, weights=[0.5]))

    # the pair scan is slow on large low-dimensional sets: keep P <= 80
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(WEIGHTS, EPS)
    def test_random_weight_sets(self, weights, eps):
        aset = generate_index_set(eps, weights=sorted(weights, reverse=True))
        assume(len(aset) <= 80)
        assert_matches_pair_scan(aset)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(WEIGHTS, EPS)
    def test_zero_slice_is_exactly_the_identity(self, weights, eps):
        # E[Lam_0 Lam_b Lam_c] = delta_bc by orthonormality, to the bit
        aset = generate_index_set(eps, weights=sorted(weights, reverse=True))
        assume(len(aset) <= 200)
        P = len(aset)
        D = build_triple_tensor(aset).multiply_matrix(np.eye(1, P)[0])
        assert np.array_equal(D, np.eye(P))


class TestExpansion:
    def test_constant_expansion(self, small_set):
        coeffs = np.zeros(len(small_set))
        coeffs[0] = 2.0
        y = np.zeros((5, small_set.max_dimension))
        np.testing.assert_allclose(evaluate_expansion(coeffs, small_set, y),
                                   2.0 * np.ones(5))

    def test_linear_coordinate_expansion(self, small_set):
        # s(y) = y_1 has single coefficient 1/sqrt(3) on the first-order index
        coeffs = np.zeros(len(small_set))
        coeffs[small_set.position(((1, 1),))] = 1.0 / np.sqrt(3.0)
        y = np.zeros(small_set.max_dimension)
        y[0] = 0.3
        assert evaluate_expansion(coeffs, small_set, y) == pytest.approx(
            0.3, abs=1e-15)

    def test_basis_orthonormal_under_quadrature(self, medium_set):
        pts, w, _ = oracles.tensor_grid(medium_set)
        B = basis_matrix(medium_set, pts)
        G = (B * w[:, None]).T @ B
        np.testing.assert_allclose(G, np.eye(len(medium_set)), atol=1e-12)

    def test_mean_variance_formulas(self, medium_set):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(len(medium_set))
        pts, w, _ = oracles.tensor_grid(medium_set)
        vals = evaluate_expansion(coeffs, medium_set, pts)
        mean_quad = np.sum(w * vals)
        var_quad = np.sum(w * (vals - mean_quad) ** 2)
        assert mean_quad == pytest.approx(coeffs[0], abs=1e-12)
        assert var_quad == pytest.approx(np.sum(coeffs[1:] ** 2), abs=1e-12)

    def test_spatial_block_evaluation(self, small_set):
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal((len(small_set), 4))
        y = rng.uniform(-1, 1, size=(3, small_set.max_dimension))
        B = basis_matrix(small_set, y)
        np.testing.assert_allclose(evaluate_expansion(coeffs, small_set, y),
                                   B @ coeffs, atol=1e-14)

    def test_dimension_mismatch_rejected(self, small_set):
        with pytest.raises(ValueError):
            evaluate_expansion(np.ones(3), small_set, np.zeros(8))
