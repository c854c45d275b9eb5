import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (direct_sum_distance_oracle, event_set_distance_oracle,
                     product_joint, random_distribution, random_joint,
                     traced_peak)
from keysec import (BitString, ConditionalChannel, Distribution,
                    JointDistribution, SampleSet, binary_entropy,
                    ciphertext_only_attack, conditional_guessing_probability,
                    contradiction_report, copy_vs_channel_gap,
                    empirical_distance, guessing_probability, kpa_next_bits,
                    maximal_coupling, maximal_mismatch, statistical_distance)
from keysec import probdist
from keysec.probdist import (_BLOCK, _blockwise_sum, _total_variation,
                             dumps_distribution, loads_distribution)


def masses_strategy(bits):
    n = 1 << bits
    return st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n,
                    max_size=n).map(lambda w: np.array(w) / np.sum(w))


def laws_strategy(bits):
    """A dense, spike or uniform law over ``bits``-bit outcomes."""
    dense = st.integers(0, 2 ** 32 - 1).map(
        lambda seed: random_distribution(np.random.default_rng(seed), bits))
    spike = st.builds(Distribution.spike, st.just(bits), st.floats(0, 1),
                      st.integers(0, (1 << bits) - 1))
    return st.one_of(dense, spike, st.just(Distribution.uniform(bits)))


class TestDistributionConstruction:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution(1, [1.1, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution(1, [0.6, 0.6])

    def test_renormalizes_within_tolerance(self):
        d = Distribution(1, [0.5 + 4e-10, 0.5 + 4e-10])
        assert d.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_just_outside_tolerance(self):
        with pytest.raises(ValueError):
            Distribution(1, [0.5 + 1e-9, 0.5 + 1e-9])

    def test_rejects_oversized_dense_space(self):
        with pytest.raises(ValueError, match="capped"):
            Distribution(21, np.zeros(4))

    def test_spike_epsilon_range(self):
        with pytest.raises(ValueError):
            Distribution.spike(4, 1.5, 0)

    @pytest.mark.parametrize("outcome", [2.7, np.nan, np.inf, "2"])
    def test_spike_outcome_must_be_integral(self, outcome):
        with pytest.raises(ValueError, match="outcome index must be an integer"):
            Distribution.spike(4, 0.1, outcome)

    @pytest.mark.parametrize("outcome", [2.0, np.int64(2), np.uint8(2)])
    def test_spike_outcome_of_any_integral_type(self, outcome):
        assert Distribution.spike(4, 0.1, outcome).spike_params == (2, 0.1)

    def test_spike_lookup_at_huge_length(self):
        # the range check reads bit lengths; 2^(2^40) is never built
        d = Distribution.spike(2**40, 0.5, 0)
        assert d.prob(0) == 0.5 + d._background()
        assert d.prob(1 << 41) == d._background()

    def test_integral_float_outcome_bits(self):
        d = Distribution(1.0, [0.5, 0.5])
        assert d.outcome_bits == 1 and type(d.outcome_bits) is int
        assert d.masses.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("bits", [1.5, np.nan, "1"])
    def test_non_integral_outcome_bits_rejected(self, bits):
        with pytest.raises(ValueError, match="outcome_bits must be an integer"):
            Distribution(bits, [0.5, 0.5])

    def test_wrong_mass_count(self):
        with pytest.raises(ValueError, match="expected"):
            Distribution(2, [0.5, 0.5])

    def test_copies_caller_array(self):
        a = np.array([0.5, 0.5])
        d = Distribution(1, a)
        a[0] = 0.7
        assert a.flags.writeable
        assert d.masses.tolist() == [0.5, 0.5]
        assert not d.masses.flags.writeable

    def test_dense_law_has_no_spike_params(self):
        with pytest.raises(ValueError, match="not in spike form"):
            Distribution(1, [0.5, 0.5]).spike_params

    def test_dense_law_expands_to_itself(self):
        d = Distribution(1, [0.25, 0.75])
        assert d.expand_dense() is d

    def test_spike_above_dense_cap_not_expanded(self):
        with pytest.raises(ValueError,
                           match="21-bit space cannot be materialized"):
            Distribution.spike(21, 0.1, 0).expand_dense()

    def test_spike_expansion_read_only(self):
        masses = Distribution.spike(4, 0.1, 3).expand_dense().masses
        assert not masses.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            masses[0] = 1.0

    @pytest.mark.parametrize("law, text", [
        (Distribution.spike(4, 0.1, 3), "Distribution.spike(4, 0.1, 3)"),
        (Distribution(1, [0.5, 0.5]), "Distribution(1, <2 masses>)")],
        ids=["spike", "dense"])
    def test_repr(self, law, text):
        assert repr(law) == text


@pytest.mark.parametrize("value", [
    Distribution(1, [0.5, 0.5]), Distribution.uniform(3),
    JointDistribution(1, 1, np.full((2, 2), 0.25)),
    ConditionalChannel.binary_symmetric(0.1)],
    ids=["dense", "spike", "joint", "channel"])
def test_no_attributes_beyond_slots(value):
    with pytest.raises(AttributeError):
        value.extra = 1


class TestSpikeDenseAgreement:
    def test_lookup_bitwise_identical(self):
        # dyadic and non-dyadic epsilons; the expansion must reproduce the
        # spike's prob() outputs bit for bit
        for eps in (0.0, 2.0 ** -4, 0.1, 0.3337, 1.0):
            spike = Distribution.spike(8, eps, 37)
            dense = spike.expand_dense()
            for x in range(256):
                assert spike.prob(x) == dense.prob(x)

    def test_operations_agree_within_1e12(self):
        rng = np.random.default_rng(11)
        u = Distribution.uniform(6)
        for _ in range(50):
            eps = float(rng.random())
            idx = int(rng.integers(64))
            spike = Distribution.spike(6, eps, idx)
            dense = spike.expand_dense()
            assert abs(statistical_distance(spike, u)
                       - statistical_distance(dense, u)) <= 1e-12
            assert abs(guessing_probability(spike)
                       - guessing_probability(dense)) <= 1e-12
            assert int(np.argmax(dense.masses)) == (idx if eps > 0.0 else 0)

    def test_large_space_spike_pair_distance(self):
        # closed form must agree with dense evaluation at a size where
        # both are available
        rng = np.random.default_rng(5)
        for _ in range(25):
            e1, e2 = rng.random(), rng.random()
            i1, i2 = rng.integers(16, size=2)
            a = Distribution.spike(4, e1, int(i1))
            b = Distribution.spike(4, e2, int(i2))
            dense_val = statistical_distance(a.expand_dense(), b.expand_dense())
            from keysec.probdist import _spike_pair_distance
            assert _spike_pair_distance(a, b) == pytest.approx(dense_val, abs=1e-12)

    def test_huge_space_analytic(self):
        l = 10**4
        spike = Distribution.spike(l, 1e-6, 0)
        assert statistical_distance(spike, Distribution.uniform(l)) == \
            pytest.approx(1e-6, rel=1e-12)
        assert guessing_probability(spike) == pytest.approx(1e-6, rel=1e-12)


def exact_spike_pair_distance(l, ip, ep, iq, eq):
    """(1/2) sum_x |p(x) - q(x)| of the intended laws, in rationals.

    Each law is eps * point(i) + (1 - eps) * uniform over 2^l outcomes;
    outside the two spike outcomes every term is the same.
    """
    u = Fraction(1, 1 << l)

    def mass(x, i, e):
        return Fraction(e) * (x == i) + (1 - Fraction(e)) * u

    union = {ip, iq}
    total = sum(abs(mass(x, ip, ep) - mass(x, iq, eq)) for x in union)
    others = ((1 << l) - len(union)) * abs(mass(-1, ip, ep) - mass(-1, iq, eq))
    return (total + others) / 2


def ulps_from(value, exact):
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


class TestSpikePairDistanceExact:
    """The distance of two spikes is closed form at every length, below the
    dense cap as above it; it must stay within 2 ulp of the exact distance
    at every length and epsilon."""

    EPS = [0.0, 1e-300, 1e-12, 1e-6, 0.5, 1 - 1e-16, 1.0]

    @staticmethod
    def epsilons(l):
        r = random.Random(l)
        return (TestSpikePairDistanceExact.EPS
                + [r.random() for _ in range(4)]
                + [10.0 ** r.uniform(-320, 0) for _ in range(4)])

    @pytest.mark.parametrize("kind", ["same", "different", "uniform"])
    @pytest.mark.parametrize("l", [0, 1, 2, 8, 12, 20, 21, 24, 53, 54, 64,
                                   1075, 10**4])
    def test_within_two_ulp_of_exact(self, l, kind):
        ip = (1 << l) - 1
        iq = ip if kind == "same" else 0
        eps = self.epsilons(l)
        pairs = ([(ep, 0.0) for ep in eps] if kind == "uniform"
                 else [(ep, eq) for ep in eps for eq in eps])
        for ep, eq in pairs:
            p = Distribution.spike(l, ep, ip)
            q = (Distribution.uniform(l) if kind == "uniform"
                 else Distribution.spike(l, eq, iq))
            exact = exact_spike_pair_distance(l, ip, ep, iq, eq)
            for a, b in ((p, q), (q, p)):
                d = statistical_distance(a, b)
                assert ulps_from(d, exact) <= 2, (l, kind, ep, eq, d)
                # the maximal coupling's mismatch is the same one sum
                assert maximal_mismatch(a, b) == d, (l, kind, ep, eq)

    def test_no_cancellation_at_tiny_eps(self):
        # the background difference of two rounded masses once swamped eps
        l = 21
        spike = Distribution.spike(l, 1e-12, (1 << l) - 1)
        u = Distribution.uniform(l)
        assert statistical_distance(spike, u) == \
            float(exact_spike_pair_distance(l, (1 << l) - 1, 1e-12, 0, 0.0))
        assert maximal_mismatch(spike, u) == 9.999995231628419e-13
        a = Distribution.spike(64, 1e-300, 0)
        b = Distribution.spike(64, 1e-300, (1 << 64) - 1)
        assert statistical_distance(a, b) == 1e-300  # once printed as 0.0
        assert maximal_mismatch(a, b) == 1e-300


def exact_excess(a, b):
    """sum_x (a(x) - b(x))^+ over the stored masses, in rationals.

    Each distinct (a(x), b(x)) pair is summed once, times its count, so an
    expanded spike costs two terms however many outcomes it has.
    """
    pairs, counts = np.unique(a + 1j * b, return_counts=True)  # exact
    return sum(int(c) * max(Fraction(z.real) - Fraction(z.imag), 0)
               for z, c in zip(pairs.tolist(), counts))


class TestDenseMismatchExact:
    """Up to the dense cap the mismatch sums the excess (a - b)^+ pairwise;
    it must stay within (log2 n + 2) 2^-53 relative of the exact sum over
    the stored masses, which a cancelling 1 - sum min(a, b) misses."""

    @staticmethod
    def assert_near_exact(p, q):
        m = maximal_mismatch(p, q)
        exact = exact_excess(p.masses, q.masses)
        bound = Fraction(p.outcome_bits + 2, 1 << 53) * exact
        assert abs(Fraction(m) - exact) <= bound, (p, q, m, float(exact))

    @pytest.mark.parametrize("bits", range(1, 13))
    def test_random_laws(self, bits):
        rng = np.random.default_rng(bits)
        for _ in range(4):
            p = random_distribution(rng, bits, zero_outcomes=1)
            q = random_distribution(rng, bits)
            self.assert_near_exact(p, q)
            self.assert_near_exact(q, p)

    @pytest.mark.parametrize("eps", [1e-12, 1e-6, 1e-3, 0.3, 1.0])
    @pytest.mark.parametrize("bits", [11, 16, 20])
    def test_spike_against_uniform(self, bits, eps):
        spike = Distribution.spike(bits, eps, 5).expand_dense()
        u = Distribution.uniform(bits)
        self.assert_near_exact(spike, u)
        self.assert_near_exact(u, spike)


class TestStatisticalDistance:
    def test_identity(self):
        d = Distribution(2, [0.4, 0.3, 0.2, 0.1])
        assert statistical_distance(d, d) == 0.0

    def test_point_vs_uniform_one_bit(self):
        point = Distribution.spike(1, 1.0, 0)
        assert statistical_distance(point, Distribution.uniform(1)) == 0.5

    def test_spike_example_against_direct_summation(self):
        spike = Distribution.spike(8, 2.0 ** -4, 0)
        uniform = Distribution.uniform(8)
        oracle = direct_sum_distance_oracle(spike, uniform)
        value = statistical_distance(spike, uniform)
        assert value == pytest.approx(oracle, abs=1e-15)
        assert value == pytest.approx(2.0 ** -4 * (1 - 2.0 ** -8), abs=1e-15)

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="differ"):
            statistical_distance(Distribution.uniform(2),
                                 Distribution.uniform(3))

    def test_equals_max_over_event_sets(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = random_distribution(rng, 3)
            q = random_distribution(rng, 3)
            assert statistical_distance(p, q) == pytest.approx(
                event_set_distance_oracle(p, q), abs=1e-12)

    def test_equals_max_over_event_sets_four_bits(self):
        rng = np.random.default_rng(29)
        p = random_distribution(rng, 4)
        q = random_distribution(rng, 4)
        assert statistical_distance(p, q) == pytest.approx(
            event_set_distance_oracle(p, q), abs=1e-12)

    @given(masses_strategy(2), masses_strategy(2))
    def test_metric_properties(self, wp, wq):
        p = Distribution(2, wp)
        q = Distribution(2, wq)
        d = statistical_distance(p, q)
        assert 0.0 <= d <= 1.0
        assert d == statistical_distance(q, p)

    @given(st.integers(0, 12).flatmap(
        lambda l: st.tuples(laws_strategy(l), laws_strategy(l))))
    def test_symmetric_bit_for_bit(self, pair):
        # |p - q| and |q - p| are the same float, so a law keeps its
        # distance from uniform in one argument order only
        p, q = pair
        d = statistical_distance(p, q)
        assert statistical_distance(q, p) == d
        assert statistical_distance(p, q) == d

    @given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    def test_disjoint_dense_laws_at_most_one(self, bits, seed):
        # the two mass sums can each round past 1
        rng = np.random.default_rng(seed)
        n = 1 << bits
        cut = int(rng.integers(1, n))
        order, w = rng.permutation(n), rng.random(n) ** 2 + 1e-12
        a, b = np.zeros(n), np.zeros(n)
        a[order[:cut]], b[order[cut:]] = w[order[:cut]], w[order[cut:]]
        d = statistical_distance(Distribution(bits, a / a.sum()),
                                 Distribution(bits, b / b.sum()))
        assert 1.0 - 1e-12 <= d <= 1.0

    @given(masses_strategy(2), masses_strategy(2), masses_strategy(2))
    def test_triangle_inequality(self, wp, wq, wr):
        p, q, r = (Distribution(2, w) for w in (wp, wq, wr))
        assert statistical_distance(p, r) <= (
            statistical_distance(p, q) + statistical_distance(q, r) + 1e-12)


class TestGuessingProbability:
    def test_uniform_eight_bits(self):
        assert guessing_probability(Distribution.uniform(8)) == 2.0 ** -8

    def test_point_mass(self):
        assert guessing_probability(Distribution.spike(3, 1.0, 5)) == 1.0

    def test_spike_example(self):
        spike = Distribution.spike(8, 2.0 ** -4, 0)
        dense_max = max(spike.expand_dense().masses)
        assert guessing_probability(spike) == dense_max
        assert dense_max == pytest.approx(2.0 ** -4 + (1 - 2.0 ** -4) * 2.0 ** -8,
                                          abs=1e-15)

    def test_uniform_iff_minimum(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_distribution(rng, 3)
            g = guessing_probability(p)
            assert g >= 2.0 ** -3
            if g == 2.0 ** -3:
                assert np.allclose(p.masses, 2.0 ** -3)

    def test_classical_uniformity_bound(self):
        # how far the best guess beats the uniform baseline is capped by
        # the distance from uniform
        rng = np.random.default_rng(17)
        for bits in (1, 2, 3, 4):
            u = Distribution.uniform(bits)
            for _ in range(250):
                p = random_distribution(rng, bits)
                slack = guessing_probability(p) - 2.0 ** -bits
                assert slack <= statistical_distance(p, u) + 1e-12

    def test_map_tie_breaks_to_lowest_index(self):
        # the MAP key under a uniform plaintext is the key law's argmax
        c, p_x = BitString.zeros(2), Distribution.uniform(2)
        d = Distribution(2, [0.25, 0.25, 0.25, 0.25])
        assert ciphertext_only_attack(c, p_x, d).map_guess.to_index() == 0
        d = Distribution(2, [0.2, 0.3, 0.3, 0.2])
        assert ciphertext_only_attack(c, p_x, d).map_guess.to_index() == 1


class TestConditionalGuessing:
    def test_independent_side_information(self):
        p = Distribution(2, [0.4, 0.3, 0.2, 0.1])
        e = Distribution(1, [0.7, 0.3])
        j = product_joint(p, e)
        assert conditional_guessing_probability(j) == pytest.approx(0.4, abs=1e-12)

    def test_deterministic_correlation(self):
        j = JointDistribution(1, 1, [[0.5, 0.0], [0.0, 0.5]])
        assert conditional_guessing_probability(j) == 1.0

    def test_two_by_two_hand_value(self):
        j = JointDistribution(1, 1, [[0.4, 0.1], [0.2, 0.3]])
        assert conditional_guessing_probability(j) == pytest.approx(0.7, abs=1e-15)

    def test_zero_column_contributes_nothing(self):
        j = JointDistribution(1, 1, [[0.6, 0.0], [0.4, 0.0]])
        assert conditional_guessing_probability(j) == pytest.approx(0.6, abs=1e-15)

    def test_never_below_marginal_guessing(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            j = random_joint(rng, 2, 2)
            marginal_x = Distribution(2, j.masses.sum(axis=1))
            assert conditional_guessing_probability(j) >= \
                guessing_probability(marginal_x) - 1e-12


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_high_precision_value(self):
        # frozen from a 50-digit evaluation of -q lg q - (1-q) lg (1-q)
        assert binary_entropy(0.11) == pytest.approx(0.49991595816452800,
                                                     abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    @pytest.mark.parametrize("q", [-0.01, 1.01, math.nan])
    def test_domain_error_names_the_range(self, q):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\], got"):
            binary_entropy(q)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range_and_symmetry(self, q):
        h = binary_entropy(q)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - q), abs=1e-12)


class TestJointDistribution:
    def test_total_mass(self):
        rng = np.random.default_rng(2)
        j = random_joint(rng, 2, 3)
        assert j.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_marginals_are_valid(self):
        rng = np.random.default_rng(4)
        j = random_joint(rng, 2, 2)
        assert j.masses.sum(axis=1).sum() == pytest.approx(1.0, abs=1e-9)
        assert j.masses.sum(axis=0).sum() == pytest.approx(1.0, abs=1e-9)

    def test_product_marginals_match_factors_exactly_dyadic(self):
        p = Distribution(2, [0.5, 0.25, 0.125, 0.125])
        q = Distribution.uniform(1)
        j = product_joint(p, q)
        assert np.array_equal(j.masses.sum(axis=1), p.masses)
        assert np.array_equal(j.masses.sum(axis=0), q.masses)

    def test_product_marginals_match_factors_random(self):
        rng = np.random.default_rng(6)
        p = random_distribution(rng, 3)
        q = random_distribution(rng, 2)
        j = product_joint(p, q)
        assert np.allclose(j.masses.sum(axis=1), p.masses, atol=1e-15)
        assert np.allclose(j.masses.sum(axis=0), q.masses, atol=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution(1, 1, [[0.7, 0.4], [-0.1, 0.0]])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError,
                           match=r"expected shape \(2, 2\), got \(2, 4\)"):
            JointDistribution(1, 1, np.full((2, 4), 0.125))

    def test_copies_caller_array(self):
        a = np.full((2, 2), 0.25)
        j = JointDistribution(1, 1, a)
        a[0, 0] = 0.7
        assert a.flags.writeable
        assert j.masses.tolist() == [[0.25, 0.25], [0.25, 0.25]]
        assert not j.masses.flags.writeable


class TestConditionalChannel:
    def test_rows_validated(self):
        with pytest.raises(ValueError):
            ConditionalChannel(1, 1, [[0.7, 0.1], [0.5, 0.5]])

    def test_rows_renormalized(self):
        rows = [[0.9 + 5e-10, 0.1], [0.1, 0.9]]
        w = ConditionalChannel(1, 1, rows)
        assert w.matrix[0].tolist() == (np.array(rows[0]) / sum(rows[0])).tolist()
        assert w.matrix[1].tolist() == rows[1]

    def test_rows_summing_to_one_stored_as_given(self):
        rows = [[1.0 - 0.37, 0.37], [1.0 - 1e-4, 1e-4]]
        assert [sum(r) for r in rows] == [1.0, 1.0]
        assert ConditionalChannel(1, 1, rows).matrix.tolist() == rows

    def test_large_channel_matches_per_row_reference(self):
        # all rows are checked in one pass; each must equal the old
        # one-row-at-a-time renormalization bit for bit
        rng = np.random.default_rng(29)
        rows = rng.random((1 << 16, 2))
        rows /= rows.sum(axis=1, keepdims=True)
        rows[::3] += rng.uniform(-5e-11, 5e-11, size=rows[::3].shape)
        expected = rows.copy()
        for row in expected:
            total = float(row.sum())
            if total != 1.0:
                row /= total
        assert (rows.sum(axis=1) != 1.0).sum() > 10_000
        w = ConditionalChannel(16, 1, rows)
        assert w.matrix.tobytes() == expected.tobytes()

    def test_negative_mass_reported_before_a_bad_row_total(self):
        with pytest.raises(ValueError, match="negative"):
            ConditionalChannel(1, 1, [[0.7, 0.1], [1.1, -0.1]])

    def test_bad_row_total_named(self):
        with pytest.raises(ValueError, match=r"^masses sum to 0\.75, outside"):
            ConditionalChannel(1, 1, [[0.5, 0.5], [0.5, 0.25]])

    def test_binary_symmetric(self):
        w = ConditionalChannel.binary_symmetric(0.1)
        assert w.matrix[0, 1] == pytest.approx(0.1)
        out = Distribution(1, np.array([1.0, 0.0]) @ w.matrix)
        assert out.masses == pytest.approx([0.9, 0.1])

    @pytest.mark.parametrize("flip", [-0.1, 1.5, math.nan])
    def test_binary_symmetric_flip_range(self, flip):
        with pytest.raises(ValueError, match="flip probability must be in"):
            ConditionalChannel.binary_symmetric(flip)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError,
                           match=r"expected shape \(2, 2\), got \(2, 4\)"):
            ConditionalChannel(1, 1, np.full((2, 4), 0.25))

    def test_joint_with_input(self):
        w = ConditionalChannel.binary_symmetric(0.25)
        j = JointDistribution(1, 1, Distribution.uniform(1).masses[:, None]
                              * w.matrix)
        assert j.masses == pytest.approx(np.array([[0.375, 0.125],
                                                   [0.125, 0.375]]))

    def test_copies_caller_array(self):
        m = np.array([[0.9, 0.1], [0.2, 0.8]])
        w = ConditionalChannel(1, 1, m)
        m[0, 0] = 0.7
        assert m.flags.writeable
        assert w.matrix.tolist() == [[0.9, 0.1], [0.2, 0.8]]
        assert not w.matrix.flags.writeable

    def test_wrong_input_size_rejected(self):
        w = ConditionalChannel.binary_symmetric(0.1)
        with pytest.raises(ValueError,
                           match="input has 2 bits, channel expects 1"):
            copy_vs_channel_gap(Distribution.uniform(2), w)


class TestFileFormat:
    def test_dense_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        d = random_distribution(rng, 4)
        text = dumps_distribution(d)
        back = loads_distribution(text)
        assert np.array_equal(back.masses, d.masses)

    def test_spike_round_trip_exact(self):
        d = Distribution.spike(8, 0.0625, BitString.from_str("00100101"))
        back = loads_distribution(dumps_distribution(d))
        assert back.is_spike
        assert back.spike_params == d.spike_params

    @pytest.mark.parametrize("bits", [0, 2**20 + 1])
    def test_spike_round_trip_at_any_length(self, bits):
        # the outcome literal bypasses BitString, which is capped at 2^20
        for idx in (0, 12345 if bits else 0, (1 << bits) - 1):
            text = dumps_distribution(Distribution.spike(bits, 0.1, idx))
            back = loads_distribution(text)
            assert back.outcome_bits == bits
            assert back.spike_params == (idx, 0.1)

    # int(literal, 2) alone would take the first five
    @pytest.mark.parametrize("bits, literal", [
        (3, "0b1"), (3, "1_0"), (2, " 1"), (2, "+1"), (2, "1\\u0661"),
        (2, "1"), (2, "001"), (2, ""), (0, "0")])
    def test_malformed_spike_outcome(self, bits, literal):
        with pytest.raises(ValueError, match="bitstring literal|expected"):
            loads_distribution('{"outcome_bits": %d, "spike": '
                               '{"outcome": "%s", "epsilon": 0.1}}'
                               % (bits, literal))

    def test_seventeen_digit_serialization(self):
        d = Distribution(1, [1.0 / 3.0, 2.0 / 3.0])
        text = dumps_distribution(d)
        assert "3.3333333333333331e-01" in text
        # every real carries 17 significant digits, even dyadic ones
        u = dumps_distribution(Distribution(1, [0.5, 0.5]))
        assert "5.0000000000000000e-01" in u

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="exactly one of masses"):
            loads_distribution('{"outcome_bits": 2}')
        with pytest.raises(ValueError):
            loads_distribution('[1, 2, 3]')

    @pytest.mark.parametrize("spike", [
        "[]", "{}", "5", '{"epsilon": 0.1}', '{"outcome": 5, "epsilon": 0.1}',
        '{"outcome": "01"}'])
    def test_malformed_spike_field(self, spike):
        with pytest.raises(ValueError):
            loads_distribution('{"outcome_bits": 2, "spike": %s}' % spike)

    def test_save_load_file(self, tmp_path):
        d = Distribution(2, [0.5, 0.5, 0.0, 0.0])
        path = tmp_path / "d.dist"
        from keysec import load_distribution, save_distribution
        save_distribution(d, path)
        assert np.array_equal(load_distribution(path).masses, d.masses)


class TestNonFiniteInput:
    def test_nan_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution(1, [float("nan"), 1.0])
        with pytest.raises(ValueError, match="negative"):
            JointDistribution(1, 1, [[float("nan"), 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_literal_rejected(self, literal):
        with pytest.raises(ValueError, match="non-finite"):
            loads_distribution(
                '{"outcome_bits": 1, "masses": [%s, 1.0]}' % literal)


def half_abs_sum(a, b):
    # (1/2) sum |a - b| without _total_variation's cap at 1, as these
    # inputs are not laws
    return 0.5 * probdist._difference_sum(a, b, np.abs)


class TestBlockwiseSum:
    # the streamed kernels print np.sum's digits only while numpy keeps
    # summing contiguous float64 arrays pairwise in halves
    @pytest.mark.parametrize("bits", range(21))
    def test_equals_np_sum_bit_for_bit(self, bits):
        rng = np.random.default_rng(bits)
        n = 1 << bits
        for values in (rng.random(n), 10.0 ** rng.uniform(-300, 0, n)):
            total = _blockwise_sum(n, lambda lo: values[lo:lo + _BLOCK].sum())
            assert total == values.sum()

    @pytest.mark.parametrize("n", [(1 << 14) + 1, 3 * (1 << 14) + 5])
    def test_any_length_within_the_pairwise_bound(self, n):
        # a pairwise sum of nonnegative terms is off by at most about
        # (log2 n + 19) 2^-53 relative (numpy's leaves hold eight running
        # sums of up to 16 terms), below 1e-14 for any n < 2^40
        rng = np.random.default_rng(n)
        for a in (rng.random(n), 10.0 ** rng.uniform(-300, 0, n)):
            b = rng.random(n) * a
            exact = 0.5 * math.fsum(np.abs(a - b))
            assert half_abs_sum(a, b) == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("r", [0, 1, _BLOCK // 2])
    def test_odd_levels_within_the_pairwise_bound(self, k, r):
        # k blocks, or k + 1 with a short last one: 3, 5 and 7 blocks, and
        # 6 blocks halved to 3, are odd levels that pad with 0.0
        n = k * _BLOCK + r
        rng = np.random.default_rng(n)
        a, b = rng.random(n), rng.random(n)
        exact = math.fsum(np.abs(a - b))
        bound = (math.ceil(math.log2(n)) + 1) * 2.0 ** -53 * exact
        assert abs(probdist._difference_sum(a, b, np.abs) - exact) <= bound

    @pytest.mark.parametrize("r", [1, 7, 8, 10])
    def test_raveled_joints_match_the_2d_sum(self, r):
        # copy_vs_channel_gap passes its 2^r x 2^r joints raveled
        rng = np.random.default_rng(r)
        a, b = rng.random((2, 1 << r, 1 << r))
        for x in (a, 10.0 ** (-300 * a)):
            assert half_abs_sum(x.ravel(), b.ravel()) == \
                0.5 * np.abs(x - b).sum()


class TestStreamedKernels:
    """Kernels above one cache block against their one-shot expressions."""

    @pytest.mark.parametrize("l", [15, 20])
    def test_ciphertext_only_attack(self, l):
        rng = np.random.default_rng(l)
        p_x = random_distribution(rng, l, zero_outcomes=100)
        p_k = random_distribution(rng, l)
        for c in (0, (1 << l) - 1, int(rng.integers(1 << l))):
            row = p_k.masses * p_x.masses[np.arange(1 << l) ^ c]
            j = int(np.argmax(row))
            report = ciphertext_only_attack(BitString.from_index(c, l),
                                            p_x, p_k)
            assert report.map_guess.to_index() == j
            assert report.map_posterior == float(row[j] / float(row.sum()))
            assert report.avg_success == float(p_k.masses.max())

    @pytest.mark.parametrize("l", [13, 14, 15, 20])
    def test_ciphertext_only_gather_within_and_across_blocks(self, l):
        # low bits of c permute within a plaintext block, high bits pick it
        rng = np.random.default_rng(100 + l)
        n = 1 << l
        high = (n - 1) & -_BLOCK
        lows = (0x3FFF, 0x2AAA, 0x1555, 1, 1 << 13)
        cs = {(int(rng.integers(n)) & high | low) & (n - 1) for low in lows}
        if high:
            cs.add(int(rng.integers(1, n // _BLOCK)) * _BLOCK)
        p_k = random_distribution(rng, l)
        for p_x in (random_distribution(rng, l),
                    random_distribution(rng, l, zero_outcomes=n // 4)):
            for c in sorted(cs):
                row = p_k.masses * p_x.masses[np.arange(n) ^ c]
                j = int(np.argmax(row))
                report = ciphertext_only_attack(BitString.from_index(c, l),
                                                p_x, p_k)
                assert report.map_guess.to_index() == j
                assert report.map_posterior == float(row[j] / float(row.sum()))

    @pytest.mark.parametrize("l", [15, 20])
    def test_map_tie_across_blocks_goes_to_lowest_index(self, l):
        rng = np.random.default_rng(l)
        low, high = _BLOCK - 5, (1 << l) - 7
        w = rng.random(1 << l)
        w[[low, high]] = 2.0
        p_k = Distribution(l, w / w.sum())
        assert p_k.masses[low] == p_k.masses[high] == p_k.masses.max()
        for c in (0, (1 << l) - 1):
            report = ciphertext_only_attack(BitString.from_index(c, l),
                                            Distribution.uniform(l), p_k)
            assert report.map_guess.to_index() == low

    @pytest.mark.parametrize("l", [15, 20])
    def test_distance_and_overlap(self, l):
        rng = np.random.default_rng(l)
        p = random_distribution(rng, l, zero_outcomes=100)
        for q in (random_distribution(rng, l), Distribution.uniform(l),
                  Distribution.spike(l, 1e-6, 5).expand_dense()):
            a, b = p.masses, q.masses
            assert statistical_distance(p, q) == float(
                0.5 * np.abs(a - b).sum())
            assert maximal_mismatch(p, q) == float(np.maximum(a - b, 0).sum())

    @pytest.mark.parametrize("block_len", [15, 16])
    def test_empirical_distance_scalar_background(self, block_len):
        rng = np.random.default_rng(block_len)
        s = SampleSet(block_len, rng.integers(0, 1 << block_len, 3 << 16))
        assert empirical_distance(s) == float(
            0.5 * np.abs(s.counts() / s.count - 2.0 ** -block_len).sum())

    def test_zero_probability_ciphertext_at_dense_cap(self):
        point = Distribution.spike(20, 1.0, 0)
        with pytest.raises(ValueError, match="zero probability"):
            ciphertext_only_attack(BitString.from_index(1, 20), point, point)


class TestUniformView:
    """``Distribution.uniform`` holds one float and answers as the full law."""

    @pytest.mark.parametrize("l", [0, 1, 8, 14, 15, 20])
    def test_queries_match_explicit_uniform(self, l):
        view = Distribution.uniform(l)
        assert view.masses.strides == (0,)
        assert not view.masses.flags.writeable
        rng = np.random.default_rng(l)
        p = random_distribution(rng, l)
        c = BitString.from_index(int(rng.integers(1 << l)), l)
        prefix = BitString.from_index(int(rng.integers(1 << l // 2)), l // 2)

        def answers(u):
            out = [u.prob(0), u.prob((1 << l) - 1), u.support_size(),
                   guessing_probability(u),
                   statistical_distance(u, p), statistical_distance(p, u),
                   maximal_mismatch(u, p), maximal_mismatch(p, u),
                   ciphertext_only_attack(c, u, p),
                   ciphertext_only_attack(c, p, u)]
            if l >= 1:  # the independent-failure bound needs a key bit
                out.append(contradiction_report(u))
            if l >= 2:
                out.append(kpa_next_bits(u, prefix))
            for pair in (maximal_coupling(u, p), maximal_coupling(p, u)):
                out += [hashlib.sha256(part).digest()
                        for part in (pair.overlap, pair.excess_p, pair.excess_q)]
            return out

        explicit = answers(Distribution(l, np.full(1 << l, 2.0 ** -l)))
        assert answers(view) == explicit
        # the uniform law is written as the eps = 0 spike, and read back
        text = dumps_distribution(view)
        assert json.loads(text) == {
            "outcome_bits": l, "spike": {"outcome": "0" * l, "epsilon": 0.0}}
        assert answers(loads_distribution(text)) == explicit


class TestAllocationBounds:
    """The documented allocation peaks of the kernels at the dense cap."""

    def test_uniform_is_one_float(self):
        _, peak = traced_peak(lambda: Distribution.uniform(20))
        assert peak < 4 << 10

    def test_spike_report_expands_nothing(self):
        spike = Distribution.spike(20, 1e-6, 5)
        _, peak = traced_peak(lambda: contradiction_report(spike))
        assert peak < 4 << 10

    def test_constructor_holds_one_copy(self):
        w = np.random.default_rng(20).random(1 << 20)
        m = w / w.sum() * (1 + 1e-12)  # renormalized, not stored as given
        assert m.sum() != 1.0
        given_bytes = m.tobytes()
        p, peak = traced_peak(lambda: Distribution(20, m))
        assert peak <= 8.5 * (1 << 20)
        assert m.flags.writeable and m.tobytes() == given_bytes
        assert p.masses.tobytes() == (m / m.sum()).tobytes()

    @pytest.mark.parametrize("kernel", [statistical_distance,
                                        maximal_mismatch])
    def test_distance_to_uniform_streams(self, kernel):
        p = random_distribution(np.random.default_rng(21), 20)
        _, peak = traced_peak(lambda: kernel(p, Distribution.uniform(20)))
        assert peak <= 160 << 10

    @pytest.mark.parametrize("uniform_plaintext", [False, True],
                             ids=["dense", "uniform"])
    def test_ciphertext_only_attack_streams(self, uniform_plaintext):
        rng = np.random.default_rng(22)
        p_x, p_k = random_distribution(rng, 20), random_distribution(rng, 20)
        c = BitString.from_index(int(rng.integers(1 << 20)), 20)
        if uniform_plaintext:  # a stride-0 view of one float
            p_x = Distribution.uniform(20)
        report, peak = traced_peak(
            lambda: ciphertext_only_attack(c, p_x, p_k))
        assert peak <= 320 << 10
        assert report.avg_success == guessing_probability(p_k)
        if uniform_plaintext:
            explicit = Distribution(20, np.full(1 << 20, 2.0 ** -20))
            assert report == ciphertext_only_attack(c, explicit, p_k)


def _positive_part_sum(a, b):
    # the unmemoized excess kernel, sum (a - b)^+
    return probdist._difference_sum(
        a, b, lambda d, out: np.maximum(d, 0.0, out=out))


def count_kernel_calls(monkeypatch):
    # a list that grows by one on each call of the dense difference kernel
    calls = []
    kernel = probdist._difference_sum
    monkeypatch.setattr(probdist, "_difference_sum",
                        lambda *args: calls.append(1) or kernel(*args))
    return calls


class TestSummaryMemo:
    """A dense law keeps its maximum and its distance from uniform.

    The distance is kept in the ``(p, uniform)`` order only; the excess
    behind ``maximal_mismatch`` and the ``(uniform, p)`` distance run the
    kernel on every call, and give the same floats.
    """

    @pytest.mark.parametrize("l", [1, 2, 7, 14, 15, 16, 20])
    @pytest.mark.parametrize("uniform_first", [False, True])
    def test_first_and_second_query_match_kernel(self, l, uniform_first):
        rng = np.random.default_rng(l)
        p, u = random_distribution(rng, l), Distribution.uniform(l)
        distance = _total_variation(p.masses, u.masses)
        excess = min(1.0, _positive_part_sum(p.masses, u.masses))
        deficit = min(1.0, _positive_part_sum(u.masses, p.masses))
        best = float(p.masses.max())
        for _ in range(2):
            pair = [statistical_distance(u, p), statistical_distance(p, u)]
            assert pair[::-1 if uniform_first else 1] == [distance] * 2
            assert maximal_mismatch(p, u) == excess
            assert maximal_mismatch(u, p) == deficit  # never from p's memo
            assert guessing_probability(p) == best
            report = contradiction_report(p)
            assert (report.delta, report.maximal_mismatch) == (distance,
                                                               excess)

    def test_spike_keeps_its_expansion_apart_from_its_layout(self):
        # the spike's own queries read only its epsilon and outcome
        spike = Distribution.spike(10, 1e-3, 7)
        masses = spike.masses
        assert spike.masses is masses and not masses.flags.writeable
        assert spike.is_spike and spike._dense is None
        assert spike.prob(7) == masses[7]

    def test_second_distance_runs_no_kernel(self, monkeypatch):
        p = random_distribution(np.random.default_rng(3), 12)
        u = Distribution.uniform(12)
        calls = count_kernel_calls(monkeypatch)
        first = statistical_distance(p, u)
        assert len(calls) == 1
        assert statistical_distance(p, Distribution.uniform(12)) == first
        contradiction_report(p)
        assert len(calls) == 2  # the report's excess pass alone
        # the other order and the excess run the kernel every time
        for n in (3, 4):
            assert statistical_distance(u, p) == first
            assert len(calls) == n
        excess = maximal_mismatch(p, u)
        for n in (6, 7):
            assert maximal_mismatch(p, u) == excess
            assert len(calls) == n

    def test_equal_laws_keep_their_own(self, monkeypatch):
        w = np.random.default_rng(4).random(1 << 10)
        p, q = Distribution(10, w / w.sum()), Distribution(10, w / w.sum())
        assert p.masses.tobytes() == q.masses.tobytes()
        u = Distribution.uniform(10)
        statistical_distance(p, u)
        calls = count_kernel_calls(monkeypatch)
        assert statistical_distance(q, u) == statistical_distance(p, u)
        assert len(calls) == 1  # q's own pass; p reads the one it keeps
        assert statistical_distance(q, u) == statistical_distance(p, u)
        assert len(calls) == 1

    def test_memo_layout(self):
        p = random_distribution(np.random.default_rng(6), 10)
        u = Distribution.uniform(10)
        contradiction_report(p)
        assert set(p._memo) == {"distance"}
        guessing_probability(p)
        assert set(p._memo) == {"distance", "max"}
        maximal_mismatch(p, u)
        statistical_distance(u, p)
        assert set(p._memo) == {"distance", "max"}

    def test_other_pairs_are_not_kept(self, monkeypatch):
        rng = np.random.default_rng(5)
        p, q = random_distribution(rng, 10), random_distribution(rng, 10)
        spike = Distribution.spike(10, 1e-3, 7)
        calls = count_kernel_calls(monkeypatch)
        for other in (q, spike):
            assert statistical_distance(p, other) == statistical_distance(
                p, other)
            assert maximal_mismatch(p, other) == maximal_mismatch(p, other)
        assert len(calls) == 8
