"""Tests for anisotropic multi-index set generation, ordering, and I/O."""

import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chaoseig.legendre import basis_matrix, build_triple_tensor
from chaoseig.multiindex import (
    MultiIndexSet,
    _sort_key,
    dimension_weights,
    generate_index_set,
    generate_index_set_by_size,
    total_degree,
)


def brute_force_box(eta, eps, max_exp=64):
    """Oracle: enumerate every index in a bounded exponent box.

    Per-dimension exponents are capped where a single factor already drops
    the product weight to eps or below (every factor is <= 1, so such an
    index cannot be a member); max_exp is a hard safety cap.
    """
    ranges = []
    for w in eta:
        cap = 0
        while w ** (cap + 1) > eps and cap < max_exp:
            cap += 1
        ranges.append(range(cap + 1))
    found = []
    for exps in itertools.product(*ranges):
        w = 1.0
        for j, e in enumerate(exps):
            w *= eta[j] ** e
        if w > eps:
            sparse = tuple((j + 1, e) for j, e in enumerate(exps) if e)
            found.append((sparse, w))
    found.sort(key=lambda t: (-t[1], total_degree(t[0]),
                              oracles.dense_exponents(t[0])))
    return found


class TestDimensionWeights:
    def test_frozen_value_first_dimension(self):
        # high-precision evaluation of 1/(2^2.2 + sqrt(1 + 2^4.4)), 40 digits
        assert dimension_weights(3.2, 1)[0] == pytest.approx(
            0.10755988153720454, abs=1e-15)

    def test_asymptotic_half_inverse_tau(self):
        # eta_m ~ 1/(2 tau_m) for large m
        eta = dimension_weights(3.2, 2000)
        m = np.arange(1, 2001)
        ratio = eta * 2.0 * (m + 1.0) ** 2.2
        assert abs(ratio[-1] - 1.0) < 1e-6

    def test_strictly_decreasing(self):
        for vs in (1.5, 2.0, 3.2, 5.0):
            eta = dimension_weights(vs, 50)
            assert np.all(np.diff(eta) < 0)
            assert np.all((eta > 0) & (eta < 1))

    def test_rejects_flat_decay(self):
        with pytest.raises(ValueError):
            dimension_weights(1.0, 3)


class TestGeneration:
    def test_geometric_example_matches_brute_force(self):
        # frozen from the box oracle: 7 indices, weights 1, .5, .25, .25,
        # .125, .125, .125
        eta = [0.5 ** m for m in range(1, 9)]
        aset = generate_index_set(0.1, weights=eta)
        oracle = brute_force_box(eta, 0.1)
        assert aset.indices == [a for a, _ in oracle]
        np.testing.assert_allclose(aset.weights, [w for _, w in oracle],
                                   rtol=1e-15)
        assert len(aset) == 7
        expected = [(), ((1, 1),), ((2, 1),), ((1, 2),),
                    ((3, 1),), ((1, 1), (2, 1)), ((1, 3),)]
        assert aset.indices == expected

    def test_agrees_with_brute_force_random_rules(self):
        # eps is re-placed midway (log scale) between two adjacent distinct
        # weights so that membership is insensitive to the last float bit
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            ndim = int(rng.integers(1, 5))
            eta = np.sort(rng.uniform(0.05, 0.9, size=ndim))[::-1]
            eps = float(rng.uniform(0.01, 0.5))
            ws = generate_index_set(eps, weights=eta).weights
            pos = len(ws) // 2
            if pos == 0 or ws[pos - 1] <= ws[pos] * (1 + 1e-9):
                continue
            eps = float(np.sqrt(ws[pos - 1] * ws[pos]))
            aset = generate_index_set(eps, weights=eta)
            oracle = brute_force_box(list(eta), eps)
            assert aset.indices == [a for a, _ in oracle]
            checked += 1

    def test_rule_based_against_box_oracle(self):
        eps = 0.02
        aset = generate_index_set(eps, varsigma=3.2)
        eta = dimension_weights(3.2, aset.max_dimension + 3)
        oracle = brute_force_box(list(eta), eps, max_exp=6)
        assert aset.indices == [a for a, _ in oracle]

    def test_trivial_threshold_keeps_only_zero(self):
        aset = generate_index_set(0.999999, varsigma=3.2)
        assert aset.indices == [()]
        assert aset.max_dimension == 0

    def test_weight_at_eps_is_excluded(self):
        # 0.5**2 and eta_2 equal eps, and eta_3 lies below it: the walk
        # stops at both, and dimensions 2 and 3 never activate
        aset = generate_index_set(0.25, weights=[0.5, 0.25, 0.1])
        assert aset.indices == [(), ((1, 1),)]

    def test_zero_index_first_with_unit_weight(self):
        aset = generate_index_set(0.01, varsigma=3.2)
        assert aset[0] == ()
        assert aset.weights[0] == 1.0
        assert np.all(np.diff(aset.weights) <= 0)
        assert np.all(aset.weights > aset.eps)

    @pytest.mark.parametrize("eps, kw", [
        (0.005, {"varsigma": 3.2}),
        (1e-3, {"varsigma": 2.0}),
        # equal weights and degrees: (1, 2) ties (2, 1), (1, 1, 0) ties
        # (0, 1, 1) and so on, with supports of different lengths
        (0.01, {"weights": [0.5, 0.5, 0.5, 0.25]}),
        (0.02, {"weights": [0.5, 0.25, 0.25, 0.125, 0.125]})])
    def test_sort_key_orders_like_dense_tuples(self, eps, kw):
        aset = generate_index_set(eps, **kw)
        entries = list(zip(aset.indices, aset.weights))
        rng = np.random.default_rng(11)
        for _ in range(3):
            shuffled = [entries[i] for i in rng.permutation(len(entries))]
            dense = sorted(shuffled, key=lambda t: (
                -t[1], total_degree(t[0]), oracles.dense_exponents(t[0])))
            assert sorted(shuffled, key=_sort_key) == dense
        assert [a for a, _ in dense] == aset.indices

    def test_downward_closed(self):
        for eps in (0.3, 0.05, 0.005, 0.0005):
            aset = generate_index_set(eps, varsigma=3.2)
            assert oracles.is_downward_closed(aset)

    def test_set_that_is_not_downward_closed_is_rejected(self):
        # ((1, 1), (2, 1)) lowered in dimension 1 is ((2, 1),), no member
        with pytest.raises(ValueError, match=r"not downward closed: "
                           r"\(\(2, 1\),\) is missing below "
                           r"\(\(1, 1\), \(2, 1\)\)"):
            MultiIndexSet([(), ((1, 1),), ((1, 1), (2, 1))],
                          [1.0, 0.5, 0.2], 0.1)

    # explicit rules of one to four dimensions and built-in rules, at eps
    # = 10**-x; every entry of the decoded arrays is checked against the
    # sparse tuples
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.one_of(
        st.tuples(st.lists(st.floats(0.2, 0.7), min_size=1, max_size=4),
                  st.floats(1.0, 2.0)).map(
            lambda t: (t[1], {"weights": sorted(t[0], reverse=True)})),
        st.tuples(st.floats(2.0, 4.0), st.floats(1.0, 3.0)).map(
            lambda t: (t[1], {"varsigma": t[0]}))))
    def test_decoded_arrays_match_the_tuples(self, rule):
        aset = generate_index_set(10.0 ** -rule[0], **rule[1])
        ndim = aset.max_dimension
        assert type(ndim) is int
        assert ndim == max((a[-1][0] for a in aset if a), default=0)
        assert aset.support.shape == aset.exponents.shape \
            == aset.lowered.shape == (len(aset), max(map(len, aset)) or 1)
        for i, alpha in enumerate(aset):
            n = len(alpha)
            dense = np.zeros(ndim, dtype=int)
            dense[aset.support[i, :n] - 1] = aset.exponents[i, :n]
            assert tuple(dense) == oracles.dense_exponents(alpha, ndim)
            assert np.all(np.diff(aset.support[i, :n]) > 0)
            assert not aset.support[i, n:].any()
            assert not aset.exponents[i, n:].any()
            assert np.all(aset.lowered[i, n:] == -1)
            for k, d in enumerate(aset.support[i, :n]):
                want = dense.copy()
                want[d - 1] -= 1
                below = aset[aset.lowered[i, k]]
                assert oracles.dense_exponents(below, ndim) == tuple(want)
        box = np.array(oracles.box_indices(aset)).reshape(len(aset), ndim)
        np.testing.assert_array_equal(aset.max_degrees, box.max(axis=0))
        for arr in (aset.support, aset.exponents, aset.lowered,
                    aset.max_degrees):
            assert arr.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_zero_only_set(self):
        aset = generate_index_set(0.9, weights=[0.5])
        assert aset.indices == [()]
        for arr, pad in ((aset.support, 0), (aset.exponents, 0),
                         (aset.lowered, -1)):
            np.testing.assert_array_equal(arr, [[pad]])
        assert aset.max_dimension == 0 and type(aset.max_dimension) is int
        assert aset.max_degrees.shape == (0,)
        tt = build_triple_tensor(aset)
        assert (tt.ia.tolist(), tt.ib.tolist(), tt.ic.tolist(),
                tt.values.tolist()) == ([0], [0], [0], [1.0])
        np.testing.assert_array_equal(basis_matrix(aset, np.zeros((3, 0))),
                                      np.ones((3, 1)))

    def test_one_step_extension_completeness(self):
        aset = generate_index_set(0.005, varsigma=3.2)
        eta = dimension_weights(3.2, aset.max_dimension + 2)
        for a, w in zip(aset.indices, aset.weights):
            for j in range(len(eta)):
                if w * eta[j] > aset.eps:
                    d = oracles.dense_exponents(a, len(eta))
                    ext = tuple((i + 1, e + (i == j)) for i, e in
                                enumerate(d) if e + (i == j))
                    assert ext in aset

    def test_monotone_refinement(self):
        a_coarse = generate_index_set(0.05, varsigma=3.2)
        a_fine = generate_index_set(0.005, varsigma=3.2)
        assert len(a_fine) > len(a_coarse)
        for a in a_coarse:
            assert a in a_fine

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            generate_index_set(1.0, varsigma=3.2)
        with pytest.raises(ValueError):
            generate_index_set(0.0, varsigma=3.2)

    def test_max_dimension_matches_weight_cutoff(self):
        for varsigma, eps in [(1.5, 0.1), (1.5, 0.01), (2.0, 0.001),
                              (3.2, 0.1), (3.2, 0.01), (3.2, 0.001)]:
            aset = generate_index_set(eps, varsigma=varsigma)
            eta = dimension_weights(varsigma, aset.max_dimension + 5)
            assert aset.max_dimension == int(np.sum(eta > eps))

    @pytest.mark.parametrize("eps, varsigma, count", [
        (1e-6, 1.5, "10^11.4"), (1e-6, 1.01, "10^569.9")])
    def test_too_many_dimensions_rejected_before_allocating(self, eps,
                                                            varsigma, count):
        # 2.5e11 weights would take 1.82 TiB; varsigma near 1 would
        # overflow a float before the cutoff is known
        message = f"about {count} dimensions, more than the limit of 100000"
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_index_set(eps, varsigma=varsigma)

    def test_too_many_members_rejected_quickly(self):
        # two dimensions, but about 10^7 members above eps: the walk stops
        # at the member limit instead of building them
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limit of 100000 members"):
            generate_index_set(1e-300, weights=[0.9, 0.9])
        assert time.perf_counter() - start < 1.0

    def test_rejects_flat_decay_by_eps(self):
        with pytest.raises(ValueError, match="varsigma must exceed 1"):
            generate_index_set(0.01, varsigma=1.0)


class TestPositions:
    def test_round_trip_and_absent(self):
        aset = generate_index_set(0.01, varsigma=3.2)
        for k, a in enumerate(aset):
            assert aset.position(a) == k
        assert aset.position(()) == 0
        assert aset.position(((1, 99),)) is None


class TestBySize:
    def test_exact_cardinalities(self):
        for target in (1, 2, 5, 31, 52, 121, 264):
            aset = generate_index_set_by_size(target, varsigma=3.2)
            assert len(aset) == target

    def test_overkill_set_truncation_dimension(self):
        # 264-member set for the 3.2-decay rule activates dimension 113
        aset = generate_index_set_by_size(264, varsigma=3.2)
        assert aset.max_dimension == 113

    def test_tie_raises_with_diagnostic(self):
        # weights 1, .5, .25, .25, .125, ...: the cut after 3 splits the .25
        # tie, and 2 and 4 are the nearest sizes a threshold can give
        eta = [0.5, 0.25, 0.125]
        with pytest.raises(ValueError, match="tie; nearest achievable: 2, 4"):
            generate_index_set_by_size(3, weights=eta)

    @pytest.mark.parametrize("weights, size", [([], 2), ([], 1),
                                               ([0.5], 2000)])
    def test_unreachable_size_raises(self, weights, size):
        # no dimension to grow, or weights that fall to 1e-300 first
        # (0.5**997 < 1e-300 < 0.5**996)
        with pytest.raises(ValueError, match=f"cannot reach size {size}"):
            generate_index_set_by_size(size, weights=weights)

    def test_size_at_the_member_limit_rejected(self):
        # the walk needs size + 1 members; 10^9 weights would take 8 GB
        for size in (100_000, 10**9):
            with pytest.raises(ValueError, match="limit of 100000 members"):
                generate_index_set_by_size(size)

    def test_reaches_weights_down_to_the_floor(self):
        aset = generate_index_set_by_size(996, weights=[0.5])
        assert len(aset) == 996
        assert aset.weights[-1] == 0.5 ** 995

    def test_rejects_invalid_explicit_weights(self):
        with pytest.raises(ValueError, match="between 0 and 1"):
            generate_index_set_by_size(3, weights=[0.5, 1.0])
        with pytest.raises(ValueError, match="non-increasing"):
            generate_index_set_by_size(3, weights=[0.25, 0.5])

    @pytest.mark.parametrize("size", [1, 2, 5, 31, 52, 120, 121])
    def test_rule_matches_squaring_oracle_bitwise(self, size):
        aset = generate_index_set_by_size(size, varsigma=3.2)
        ref = oracles.index_set_by_squaring(size, varsigma=3.2)
        assert aset.indices == ref.indices
        assert aset.weights.tobytes() == ref.weights.tobytes()
        assert aset.eps == ref.eps

    # weights from a few powers of two make exact ties common; at least
    # 0.05 and size <= 40 keep every needed weight above the oracle's
    # 2**-512 floor, so both searches reach the same sizes
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.one_of(st.sampled_from([0.5, 0.25, 0.125, 0.0625]),
                              st.floats(0.05, 0.7)), max_size=5),
           st.integers(1, 40))
    def test_explicit_weights_match_squaring_oracle(self, weights, size):
        weights = sorted(weights, reverse=True)
        try:
            ref = oracles.index_set_by_squaring(size, weights=weights)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                generate_index_set_by_size(size, weights=weights)
            assert str(err.value) == str(exc)
            return
        aset = generate_index_set_by_size(size, weights=weights)
        assert aset.indices == ref.indices
        assert aset.weights.tobytes() == ref.weights.tobytes()
        assert aset.eps == ref.eps
        assert oracles.is_downward_closed(aset)
