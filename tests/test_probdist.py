import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (direct_sum_distance_oracle, event_set_distance_oracle,
                     product_joint, random_distribution, random_joint)
from keysec import (BitString, ConditionalChannel, Distribution,
                    JointDistribution, SampleSet, binary_entropy,
                    ciphertext_only_attack, conditional_guessing_probability,
                    copy_vs_channel_gap, empirical_distance,
                    guessing_probability, maximal_mismatch,
                    statistical_distance)
from keysec.probdist import (_BLOCK, _blockwise_sum, dumps_distribution,
                             loads_distribution)


def masses_strategy(bits):
    n = 1 << bits
    return st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n,
                    max_size=n).map(lambda w: np.array(w) / np.sum(w))


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
    """Above the dense cap the spike-pair distance is closed form; it must
    stay within 2 ulp of the exact distance at every length and epsilon."""

    EPS = [0.0, 1e-300, 1e-12, 1e-6, 0.5, 1 - 1e-16, 1.0]

    @staticmethod
    def epsilons(l):
        r = random.Random(l)
        return (TestSpikePairDistanceExact.EPS
                + [r.random() for _ in range(4)]
                + [10.0 ** r.uniform(-320, 0) for _ in range(4)])

    @pytest.mark.parametrize("kind", ["same", "different", "uniform"])
    @pytest.mark.parametrize("l", [21, 24, 53, 54, 64, 1075, 10**4])
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
            for d in (statistical_distance(p, q), statistical_distance(q, p)):
                assert ulps_from(d, exact) <= 2, (l, kind, ep, eq, d)

    def test_no_cancellation_at_tiny_eps(self):
        # the background difference of two rounded masses once swamped eps
        l = 21
        spike = Distribution.spike(l, 1e-12, (1 << l) - 1)
        assert statistical_distance(spike, Distribution.uniform(l)) == \
            float(exact_spike_pair_distance(l, (1 << l) - 1, 1e-12, 0, 0.0))
        a = Distribution.spike(64, 1e-300, 0)
        b = Distribution.spike(64, 1e-300, (1 << 64) - 1)
        assert statistical_distance(a, b) == 1e-300  # once printed as 0.0


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
        assert d == pytest.approx(statistical_distance(q, p), abs=1e-15)

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

    def test_binary_symmetric(self):
        w = ConditionalChannel.binary_symmetric(0.1)
        assert w.matrix[0, 1] == pytest.approx(0.1)
        out = Distribution(1, np.array([1.0, 0.0]) @ w.matrix)
        assert out.masses == pytest.approx([0.9, 0.1])

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

    def test_seventeen_digit_serialization(self):
        d = Distribution(1, [1.0 / 3.0, 2.0 / 3.0])
        text = dumps_distribution(d)
        assert "3.3333333333333331e-01" in text
        # every real carries 17 significant digits, even dyadic ones
        u = dumps_distribution(Distribution.uniform(1))
        assert "5.0000000000000000e-01" in u

    def test_malformed_document(self):
        with pytest.raises(ValueError):
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
            assert maximal_mismatch(p, q) == min(1.0, max(
                0.0, 1.0 - float(np.minimum(a, b).sum())))

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
