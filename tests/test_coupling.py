import numpy as np
import pytest

from helpers import random_distribution
from keysec import (ConditionalChannel, ContradictionReport, Coupling,
                    Distribution, JointDistribution, contradiction_report,
                    copy_vs_channel_gap, independent_coupling_failure,
                    maximal_coupling, min_mismatch_oracle,
                    mismatch_probability, statistical_distance)
from keysec import maximal_mismatch


def spike_mismatch_oracle(l, e1, i1, e2, i2):
    # 1 - sum_x min(p(x), q(x)) summed over the 2^l outcomes at 60 digits
    import mpmath
    with mpmath.workdps(60):
        u = mpmath.mpf(2) ** -l
        e1, e2 = mpmath.mpf(e1), mpmath.mpf(e2)
        bg1, bg2 = (1 - e1) * u, (1 - e2) * u
        if i1 == i2:
            agree = min(e1 + bg1, e2 + bg2) + (2 ** l - 1) * min(bg1, bg2)
        else:
            agree = (min(e1 + bg1, bg2) + min(bg1, e2 + bg2)
                     + (2 ** l - 2) * min(bg1, bg2))
        return 1 - agree


def random_coupling(rng, bits):
    """Random joint; declared marginals are its own row/column sums."""
    n = 1 << bits
    weights = rng.random((n, n)) ** 2
    weights /= weights.sum()
    joint = JointDistribution(bits, bits, weights)
    return Coupling(joint, Distribution(bits, weights.sum(axis=1)),
                    Distribution(bits, weights.sum(axis=0)))


class TestCouplingType:
    def test_marginals_enforced(self):
        joint = JointDistribution(1, 1, [[0.5, 0.0], [0.0, 0.5]])
        uniform = Distribution.uniform(1)
        Coupling(joint, uniform, uniform)  # valid
        skewed = Distribution(1, [0.9, 0.1])
        with pytest.raises(ValueError, match="marginal"):
            Coupling(joint, skewed, uniform)

    def test_requires_square(self):
        joint = JointDistribution(1, 2, np.full((2, 4), 0.125))
        with pytest.raises(ValueError, match="x_bits == y_bits"):
            Coupling(joint, Distribution.uniform(1), Distribution.uniform(2))


class TestMismatchProbability:
    def test_identity_coupling_is_zero(self):
        p = Distribution(1, [0.75, 0.25])
        assert mismatch_probability(maximal_coupling(p, p)) == 0.0

    def test_independent_uniform_bits(self):
        u = Distribution.uniform(1)
        c = Coupling(JointDistribution.from_product(u, u), u, u)
        assert mismatch_probability(c) == 0.5

    def test_maximal_example(self):
        c = maximal_coupling(Distribution(1, [0.5, 0.5]),
                             Distribution(1, [0.75, 0.25]))
        assert mismatch_probability(c) == pytest.approx(0.25, abs=1e-12)


class TestMaximalCoupling:
    def test_equal_inputs_diagonal(self):
        p = Distribution(2, [0.5, 0.25, 0.125, 0.125])
        c = maximal_coupling(p, p)
        off_diag = c.joint.masses - np.diag(np.diag(c.joint.masses))
        assert np.all(off_diag == 0.0)
        assert mismatch_probability(c) == 0.0
        q = Distribution(2, [0.4, 0.3, 0.2, 0.1])
        assert mismatch_probability(maximal_coupling(q, q)) <= 1e-12

    def test_disjoint_supports(self):
        p = Distribution(1, [1.0, 0.0])
        q = Distribution(1, [0.0, 1.0])
        assert mismatch_probability(maximal_coupling(p, q)) == 1.0

    def test_achieves_distance(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            bits = int(rng.integers(1, 4))
            p = random_distribution(rng, bits)
            q = random_distribution(rng, bits)
            c = maximal_coupling(p, q)
            assert mismatch_probability(c) == pytest.approx(
                statistical_distance(p, q), abs=1e-12)

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="differ"):
            maximal_coupling(Distribution.uniform(1), Distribution.uniform(2))


class TestMinMismatchOracle:
    def test_equal_inputs(self):
        p = Distribution(1, [0.3, 0.7])
        assert min_mismatch_oracle(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint(self):
        p = Distribution(1, [1.0, 0.0])
        q = Distribution(1, [0.0, 1.0])
        assert min_mismatch_oracle(p, q) == pytest.approx(1.0, abs=1e-9)

    def test_reference_pair(self):
        value = min_mismatch_oracle(Distribution(1, [0.5, 0.5]),
                                    Distribution(1, [0.75, 0.25]))
        assert value == pytest.approx(0.25, abs=1e-9)

    def test_scale_error(self):
        p = random_distribution(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="support"):
            min_mismatch_oracle(p, p)

    def test_triple_agreement(self):
        # oracle LP = explicit construction = statistical distance
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = random_distribution(rng, 3, zero_outcomes=3)
            q = random_distribution(rng, 3, zero_outcomes=3)
            delta = statistical_distance(p, q)
            assert min_mismatch_oracle(p, q) == pytest.approx(delta, abs=1e-9)
            assert mismatch_probability(maximal_coupling(p, q)) == \
                pytest.approx(delta, abs=1e-9)


class TestCouplingInequality:
    def test_distance_lower_bounds_every_mismatch(self):
        rng = np.random.default_rng(59)
        for _ in range(500):
            c = random_coupling(rng, int(rng.integers(1, 3)))
            delta = statistical_distance(c.declared_p, c.declared_q)
            assert delta <= mismatch_probability(c) + 1e-12


class TestCopyVsChannel:
    def test_noiseless(self):
        p = Distribution(1, [0.6, 0.4])
        gap = copy_vs_channel_gap(p, ConditionalChannel.identity(1))
        assert gap.delta_joint == 0.0
        assert gap.mismatch == 0.0

    def test_bsc_flip_01(self):
        gap = copy_vs_channel_gap(Distribution.uniform(1),
                                  ConditionalChannel.binary_symmetric(0.1))
        # four-entry joints: copy = diag(.5, .5); channel = [[.45,.05],[.05,.45]]
        assert gap.delta_joint == pytest.approx(0.1, abs=1e-15)
        assert gap.mismatch == pytest.approx(0.1, abs=1e-15)

    def test_bsc_flip_half(self):
        gap = copy_vs_channel_gap(Distribution.uniform(1),
                                  ConditionalChannel.binary_symmetric(0.5))
        assert gap.delta_joint == pytest.approx(0.5, abs=1e-15)
        assert gap.mismatch == pytest.approx(0.5, abs=1e-15)

    def test_equality_random_channels(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            bits = int(rng.integers(1, 4))
            p = random_distribution(rng, bits)
            rows = rng.random((1 << bits, 1 << bits)) ** 2
            rows /= rows.sum(axis=1, keepdims=True)
            w = ConditionalChannel(bits, bits, rows)
            gap = copy_vs_channel_gap(p, w)
            assert gap.delta_joint == pytest.approx(gap.mismatch, abs=1e-12)

    def test_non_square_rejected(self):
        w = ConditionalChannel(1, 2, np.full((2, 4), 0.25))
        with pytest.raises(ValueError, match="square"):
            copy_vs_channel_gap(Distribution.uniform(1), w)

    def test_wrong_input_size_rejected(self):
        w = ConditionalChannel.binary_symmetric(0.1)
        with pytest.raises(ValueError,
                           match="input has 2 bits, channel expects 1"):
            copy_vs_channel_gap(Distribution.uniform(2), w)


class TestIndependentFailure:
    def test_small_lengths(self):
        assert independent_coupling_failure(1).value == 0.5
        assert independent_coupling_failure(4).value == 0.9375

    def test_huge_length_complement_exact(self):
        lp = independent_coupling_failure(10**4)
        assert lp.log2_complement == -10**4
        assert lp.value == 1.0  # complement itself underflows any float

    def test_formula_not_distribution_dependent(self):
        # the failure value is a function of the length alone; the identity
        # sum_k P(k) 2^-l = 2^-l holds for every key law
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_distribution(rng, 4)
            assert float((p.masses * 2.0 ** -4).sum()) == pytest.approx(
                2.0 ** -4, abs=1e-15)
        assert independent_coupling_failure(4).value == 1 - 2.0 ** -4

    def test_length_validated(self):
        with pytest.raises(ValueError):
            independent_coupling_failure(0)


class TestContradictionReport:
    def test_uniform_input(self):
        report = contradiction_report(Distribution.uniform(2))
        assert report == ContradictionReport(0.0, 0.0, 0.75)

    def test_spike_input(self):
        spike = Distribution.spike(4, 0.1, 0).expand_dense()
        report = contradiction_report(spike)
        expected_delta = 0.1 * (1 - 2.0 ** -4)
        assert report.delta == pytest.approx(expected_delta, abs=1e-12)
        assert report.maximal_mismatch == pytest.approx(expected_delta, abs=1e-12)
        assert report.independent_failure == 0.9375

    def test_point_mass_input(self):
        report = contradiction_report(Distribution.point_mass(2, 3))
        assert report.delta == pytest.approx(0.75, abs=1e-12)
        assert report.maximal_mismatch == pytest.approx(0.75, abs=1e-12)
        assert report.independent_failure == 0.75

    def test_spike_above_dense_cap(self):
        report = contradiction_report(Distribution.spike(24, 0.25, 5))
        expected = 0.25 * (1 - 2.0 ** -24)
        assert report.delta == pytest.approx(expected, abs=1e-16)
        assert report.maximal_mismatch == pytest.approx(expected, abs=1e-16)
        assert report.independent_failure == 1 - 2.0 ** -24

    def test_failure_fixed_while_delta_varies(self):
        rng = np.random.default_rng(31)
        deltas = set()
        for _ in range(50):
            report = contradiction_report(random_distribution(rng, 4))
            assert report.independent_failure == 0.9375
            deltas.add(round(report.delta, 12))
        assert len(deltas) > 40


class TestMaximalMismatch:
    def test_matches_the_built_coupling(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            bits = int(rng.integers(1, 7))
            p = random_distribution(rng, bits, zero_outcomes=1)
            q = random_distribution(rng, bits)
            m = maximal_mismatch(p, q)
            # the joint's renormalization may move the last bits only
            assert m == pytest.approx(
                mismatch_probability(maximal_coupling(p, q)), abs=1e-15)
            assert m == pytest.approx(statistical_distance(p, q), abs=1e-15)

    def test_spaces_must_agree(self):
        with pytest.raises(ValueError, match="differ"):
            maximal_mismatch(Distribution.uniform(1), Distribution.uniform(2))

    def test_spike_closed_form_matches_mpmath(self):
        rng = np.random.default_rng(23)
        epsilons = [0.0, 1.0, 1e-300, 1e-17, 1e-6, 0.5, 1 - 1e-16]
        for _ in range(300):
            l = int(rng.integers(21, 1101))
            e1, e2 = (float(rng.choice(epsilons)) if rng.random() < 0.3
                      else float(rng.random()) for _ in range(2))
            i1 = int(rng.integers(0, 8))
            i2 = i1 if rng.random() < 0.5 else i1 + 1
            m = maximal_mismatch(Distribution.spike(l, e1, i1),
                                 Distribution.spike(l, e2, i2))
            oracle = spike_mismatch_oracle(l, e1, i1, e2, i2)
            assert abs(m - oracle) <= 3e-16, (l, e1, i1, e2, i2)
