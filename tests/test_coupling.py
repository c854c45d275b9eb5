from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import product_joint, random_distribution, traced_peak
from keysec import (ConditionalChannel, ContradictionReport, Distribution,
                    contradiction_report, copy_vs_channel_gap,
                    independent_coupling_failure, maximal_coupling,
                    min_mismatch_oracle, statistical_distance)
from keysec import coupling, maximal_mismatch


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


def off_diagonal_mass(c):
    """Pr[X != Y] under c: sum over x != y of excess_p(x) excess_q(y) / delta.

    delta is sum excess_p and excess_p * excess_q is zero, so the sum over
    all x and y, sum excess_q, is all off the diagonal.
    """
    return float(c.excess_q.sum())


def marginals(c):
    """The row and column sums of c, in closed form from its parts."""
    delta = c.excess_p.sum()
    if delta == 0.0:  # the rank-one term is zero
        return c.overlap, c.overlap
    # each row x adds excess_p(x) sum excess_q / delta; each column y adds
    # excess_q(y) sum excess_p / delta, which is excess_q(y)
    return (c.overlap + c.excess_p * (c.excess_q.sum() / delta),
            c.overlap + c.excess_q)


@st.composite
def dense_laws(draw, bits):
    """A random dense law, or a spike expanded to its 2^bits masses."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        zeros = draw(st.integers(0, (1 << bits) - 1))
        return random_distribution(rng, bits, zero_outcomes=zeros)
    eps = draw(st.sampled_from([0.0, 1.0, 1e-12, 0.5]) | st.floats(0, 1))
    index = draw(st.integers(0, (1 << bits) - 1))
    return Distribution.spike(bits, eps, index).expand_dense()


@st.composite
def dense_pairs(draw):
    bits = draw(st.integers(0, 12))
    return draw(dense_laws(bits)), draw(dense_laws(bits))


class TestMismatchProbability:
    def test_identity_coupling_is_zero(self):
        p = Distribution(1, [0.75, 0.25])
        assert maximal_mismatch(p, p) == 0.0
        assert off_diagonal_mass(maximal_coupling(p, p)) == 0.0

    def test_independent_uniform_bits(self):
        # an independent copy of a uniform bit differs half the time; the
        # maximal coupling of the same pair never does
        u = Distribution.uniform(1)
        joint = product_joint(u, u).masses
        assert joint.sum() - np.trace(joint) == 0.5
        assert independent_coupling_failure(1).value == 0.5
        assert maximal_mismatch(u, u) == 0.0

    def test_maximal_example(self):
        p, q = Distribution(1, [0.5, 0.5]), Distribution(1, [0.75, 0.25])
        assert maximal_mismatch(p, q) == pytest.approx(0.25, abs=1e-12)
        assert off_diagonal_mass(maximal_coupling(p, q)) == \
            pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("l", range(0, 9))
    def test_off_diagonal_mass_against_fraction(self, l):
        # 1 - sum overlap cancels: at 8 bits the spike pair gave 9.9609e-13
        # beside an exact off-diagonal mass of 9.9607e-13
        rng = np.random.default_rng(l)
        pairs = [(Distribution.spike(l, 1e-12, 3 % (1 << l)).expand_dense(),
                  Distribution.uniform(l)),
                 (random_distribution(rng, l), random_distribution(rng, l))]
        for p, q in pairs:
            a, b = (list(map(Fraction, r.masses.tolist())) for r in (p, q))
            for got, x, y in [(maximal_mismatch(p, q), a, b),
                              (off_diagonal_mass(maximal_coupling(p, q)), b, a)]:
                exact = sum(max(s - t, 0) for s, t in zip(x, y))
                assert abs(Fraction(got) - exact) <= \
                    (2 * l + 2) * Fraction(2) ** -53 * exact

    def test_joint_is_never_copied_whole(self):
        p = Distribution.spike(10, 1e-3, 5).expand_dense()
        q = Distribution.uniform(10)
        for call in (maximal_coupling, maximal_mismatch):
            _, peak = traced_peak(lambda: call(p, q))
            assert peak < 1 << 20  # the joint would be 8 MiB


class TestMaximalCoupling:
    def test_equal_inputs_diagonal(self):
        for p in (Distribution(2, [0.5, 0.25, 0.125, 0.125]),
                  Distribution(2, [0.4, 0.3, 0.2, 0.1])):
            c = maximal_coupling(p, p)
            assert not c.excess_p.any() and not c.excess_q.any()
            assert c.overlap.tobytes() == p.masses.tobytes()
            assert maximal_mismatch(p, p) == 0.0

    def test_disjoint_supports(self):
        p = Distribution(1, [1.0, 0.0])
        q = Distribution(1, [0.0, 1.0])
        c = maximal_coupling(p, q)
        assert not c.overlap.any()
        assert maximal_mismatch(p, q) == off_diagonal_mass(c) == 1.0

    def test_achieves_distance(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            bits = int(rng.integers(1, 4))
            p = random_distribution(rng, bits)
            q = random_distribution(rng, bits)
            c = maximal_coupling(p, q)
            assert off_diagonal_mass(c) == pytest.approx(
                statistical_distance(p, q), abs=1e-12)

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="differ"):
            maximal_coupling(Distribution.uniform(1), Distribution.uniform(2))

    @pytest.mark.parametrize("bits", [10, 20])
    def test_peak_is_three_vectors(self, bits):
        # overlap, excess_p and excess_q: 24 MiB at 20 bits, where the
        # 2^bits x 2^bits joint would be 8 TiB
        rng = np.random.default_rng(bits)
        p, q = random_distribution(rng, bits), random_distribution(rng, bits)
        c, peak = traced_peak(lambda: maximal_coupling(p, q))
        assert peak <= 3.25 * 8 * 2 ** bits
        assert c.excess_p.sum() == maximal_mismatch(p, q)

    @given(dense_pairs())
    def test_parts_are_the_maximal_coupling(self, pair):
        p, q = pair
        c = maximal_coupling(p, q)
        rows, cols = marginals(c)
        assert np.abs(rows - p.masses).max() <= 1e-9
        assert np.abs(cols - q.masses).max() <= 1e-9
        assert not (c.excess_p * c.excess_q).any()
        mismatch = maximal_mismatch(p, q)
        if mismatch < 1.0:
            assert c.excess_p.sum() == mismatch
        for part in (c.overlap, c.excess_p, c.excess_q):
            assert not part.flags.writeable


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

    def test_spaces_must_agree(self):
        with pytest.raises(ValueError, match="outcome spaces differ"):
            min_mismatch_oracle(Distribution(1, [0.5, 0.5]),
                                Distribution(2, [0.5, 0.5, 0.0, 0.0]))

    def test_solver_failure_raised(self, monkeypatch):
        class Failed:
            success, message = False, "infeasible"
        monkeypatch.setattr(coupling, "milp", lambda *a, **k: Failed)
        p = Distribution(1, [0.5, 0.5])
        with pytest.raises(RuntimeError,
                           match="coupling LP failed: infeasible"):
            min_mismatch_oracle(p, p)

    def test_triple_agreement(self):
        # oracle LP = explicit construction = statistical distance
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = random_distribution(rng, 3, zero_outcomes=3)
            q = random_distribution(rng, 3, zero_outcomes=3)
            delta = statistical_distance(p, q)
            assert min_mismatch_oracle(p, q) == pytest.approx(delta, abs=1e-9)
            assert off_diagonal_mass(maximal_coupling(p, q)) == \
                pytest.approx(delta, abs=1e-9)


class TestCouplingInequality:
    def test_distance_lower_bounds_every_mismatch(self):
        # every joint law couples its own marginals, and mismatches at
        # least as often as their distance
        rng = np.random.default_rng(59)
        for _ in range(500):
            bits = int(rng.integers(1, 3))
            weights = rng.random((1 << bits, 1 << bits)) ** 2
            weights /= weights.sum()
            delta = statistical_distance(
                Distribution(bits, weights.sum(axis=1)),
                Distribution(bits, weights.sum(axis=0)))
            assert delta <= 1.0 - np.trace(weights) + 1e-12


class TestCopyVsChannel:
    def test_noiseless(self):
        p = Distribution(1, [0.6, 0.4])
        gap = copy_vs_channel_gap(p, ConditionalChannel(1, 1, np.eye(2)))
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

    def test_identity_holds_for_a_row_off_by_5e10(self):
        # the channel renormalizes the row, so the joint law sums to 1 and
        # the diagonal deficit equals the off-diagonal mass
        w = ConditionalChannel(1, 1, [[0.9 + 5e-10, 0.1], [0.1, 0.9]])
        gap = copy_vs_channel_gap(Distribution.uniform(1), w)
        assert gap.delta_joint == pytest.approx(gap.mismatch, abs=1e-15)

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
        report = contradiction_report(Distribution.spike(2, 1.0, 3))
        assert report.delta == pytest.approx(0.75, abs=1e-12)
        assert report.maximal_mismatch == pytest.approx(0.75, abs=1e-12)
        assert report.independent_failure == 0.75

    def test_spike_above_dense_cap(self):
        report = contradiction_report(Distribution.spike(24, 0.25, 5))
        expected = 0.25 * (1 - 2.0 ** -24)
        assert report.delta == pytest.approx(expected, abs=1e-16)
        assert report.maximal_mismatch == pytest.approx(expected, abs=1e-16)
        assert report.independent_failure == 1 - 2.0 ** -24

    def test_spike_expanded_once(self, monkeypatch):
        # a spike against uniform is the closed form: nothing is expanded,
        # and both fields are eps (1 - 2^-12) correctly rounded
        spike = Distribution.spike(12, 1e-3, 5)
        expand = Distribution.expand_dense
        expansions = []

        def counting(self):
            if self.is_spike:
                expansions.append(self.outcome_bits)
            return expand(self)

        monkeypatch.setattr(Distribution, "expand_dense", counting)
        exact = float(Fraction(1e-3) * (1 - Fraction(1, 1 << 12)))
        assert exact == 0.000999755859375
        assert contradiction_report(spike) == ContradictionReport(
            exact, exact, 1 - 2.0 ** -12)
        assert expansions == []

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
            c = maximal_coupling(p, q)
            assert m == c.excess_p.sum()
            # sum excess_q differs from sum excess_p by the laws' rounding
            assert m == pytest.approx(off_diagonal_mass(c), abs=1e-15)
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
