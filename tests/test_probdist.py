import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (direct_sum_distance_oracle, event_set_distance_oracle,
                     random_distribution, random_joint)
from keysec import (BitString, ConditionalChannel, Distribution,
                    JointDistribution, binary_entropy,
                    conditional_guessing_probability, guessing_probability,
                    statistical_distance)
from keysec.probdist import dumps_distribution, loads_distribution


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
            assert spike.map_outcome() == dense.map_outcome()

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


class TestStatisticalDistance:
    def test_identity(self):
        d = Distribution(2, [0.4, 0.3, 0.2, 0.1])
        assert statistical_distance(d, d) == 0.0

    def test_point_vs_uniform_one_bit(self):
        point = Distribution.point_mass(1, 0)
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
        assert guessing_probability(Distribution.point_mass(3, 5)) == 1.0

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
        d = Distribution(2, [0.25, 0.25, 0.25, 0.25])
        assert d.map_outcome().to_index() == 0
        d = Distribution(2, [0.2, 0.3, 0.3, 0.2])
        assert d.map_outcome().to_index() == 1


class TestConditionalGuessing:
    def test_independent_side_information(self):
        p = Distribution(2, [0.4, 0.3, 0.2, 0.1])
        e = Distribution(1, [0.7, 0.3])
        j = JointDistribution.from_product(p, e)
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
            assert conditional_guessing_probability(j) >= \
                guessing_probability(j.marginal_x()) - 1e-12


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
        assert j.marginal_x().masses.sum() == pytest.approx(1.0, abs=1e-9)
        assert j.marginal_y().masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_product_marginals_match_factors_exactly_dyadic(self):
        p = Distribution(2, [0.5, 0.25, 0.125, 0.125])
        q = Distribution.uniform(1)
        j = JointDistribution.from_product(p, q)
        assert np.array_equal(j.marginal_x().masses, p.masses)
        assert np.array_equal(j.marginal_y().masses, q.masses)

    def test_product_marginals_match_factors_random(self):
        rng = np.random.default_rng(6)
        p = random_distribution(rng, 3)
        q = random_distribution(rng, 2)
        j = JointDistribution.from_product(p, q)
        assert np.allclose(j.marginal_x().masses, p.masses, atol=1e-15)
        assert np.allclose(j.marginal_y().masses, q.masses, atol=1e-15)

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

    def test_binary_symmetric(self):
        w = ConditionalChannel.binary_symmetric(0.1)
        assert w.matrix[0, 1] == pytest.approx(0.1)
        out = w.apply(Distribution(1, [1.0, 0.0]))
        assert out.masses == pytest.approx([0.9, 0.1])

    def test_joint_with_input(self):
        w = ConditionalChannel.binary_symmetric(0.25)
        j = w.joint_with_input(Distribution.uniform(1))
        assert j.masses == pytest.approx(np.array([[0.375, 0.125],
                                                   [0.125, 0.375]]))

    def test_identity(self):
        w = ConditionalChannel.identity(2)
        p = Distribution(2, [0.4, 0.3, 0.2, 0.1])
        assert np.allclose(w.apply(p).masses, p.masses, rtol=0, atol=1e-15)

    def test_copies_caller_array(self):
        m = np.array([[0.9, 0.1], [0.2, 0.8]])
        w = ConditionalChannel(1, 1, m)
        m[0, 0] = 0.7
        assert m.flags.writeable
        assert w.matrix.tolist() == [[0.9, 0.1], [0.2, 0.8]]
        assert not w.matrix.flags.writeable

    def test_wrong_input_size_rejected(self):
        w = ConditionalChannel.binary_symmetric(0.1)
        for method in (w.apply, w.joint_with_input):
            with pytest.raises(ValueError,
                               match="input has 2 bits, channel expects 1"):
                method(Distribution.uniform(2))


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
