import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from keysec import (Distribution, FiniteKeyParams, LogProb, NoSolutionError,
                    default_rate_params, epsilon_for_security_rate,
                    extractable_key_length, guessing_probability,
                    leakage_profile, markov_individual_bound,
                    pipeline_efficiency, required_epsilon, statistical_distance,
                    yuen_upper_bound)
from keysec import bounds
from keysec.bounds import log2_add

HUGE = 10**5000  # past the 4300-digit limit of str() and the float range


class TestLogProb:
    def test_value_and_log10(self):
        lp = LogProb.from_log2(-10.0)
        assert lp.value == 2.0 ** -10
        assert lp.log10 == pytest.approx(-10 * math.log10(2), abs=1e-12)

    def test_rejects_positive_exponent(self):
        with pytest.raises(ValueError):
            LogProb(0.5)

    def test_rejects_nan_exponent(self):
        with pytest.raises(ValueError, match="log2_value"):
            LogProb(math.nan)

    def test_from_log2_rejects_nan_instead_of_capping(self):
        with pytest.raises(ValueError, match="log2_value"):
            LogProb.from_log2(math.nan)
        assert LogProb.from_log2(0.5).value == 1.0
        assert LogProb.from_log2(-math.inf).value == 0.0

    def test_extreme_exponent_round_trip(self):
        lp = LogProb.from_log2(-10.0 ** 4)
        assert lp.log10 == pytest.approx(-3010.2999566398119, abs=0.1)
        assert lp.value == 0.0  # underflow is expected, the exponent survives

    def test_one_minus_pow2(self):
        lp = LogProb.one_minus_pow2(4)
        assert lp.value == pytest.approx(0.9375, abs=1e-15)
        assert lp.log2_complement == -4.0
        huge = LogProb.one_minus_pow2(10 ** 4)
        assert huge.log2_complement == -10.0 ** 4
        assert huge.complement_log10 == pytest.approx(-3010.3, abs=0.1)

    def test_no_complement_without_its_exponent(self):
        assert LogProb.from_log2(-10.0).complement_log10 is None

    def test_log2_add(self):
        assert log2_add(-4.0, -4.0) == pytest.approx(-3.0, abs=1e-15)
        assert log2_add(-1.0, -math.inf) == -1.0
        assert log2_add(-math.inf, -1.0) == -1.0

    @given(st.lists(st.floats(min_value=-5000.0, max_value=0.0), min_size=2,
                    max_size=10))
    def test_log10_reporting_monotone(self, exponents):
        lps = [LogProb.from_log2(x) for x in sorted(exponents)]
        log10s = [lp.log10 for lp in lps]
        assert all(a <= b for a, b in zip(log10s, log10s[1:]))


class TestYuenUpperBound:
    def test_zero_distance(self):
        assert yuen_upper_bound(0.0, 8).value == 2.0 ** -8

    def test_headline_parameters(self):
        # at eps_bar 1e-6 and a 10^4-bit key the 2^-l term is invisible
        lp = yuen_upper_bound(1e-6, 10 ** 4)
        assert lp.log10 == pytest.approx(-6.0, abs=0.01)

    def test_equal_addends(self):
        assert yuen_upper_bound(2.0 ** -4, 4).value == pytest.approx(
            2.0 ** -3, abs=1e-15)

    def test_capped_at_one(self):
        assert yuen_upper_bound(1.0, 1).value == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            yuen_upper_bound(-0.1, 4)
        with pytest.raises(ValueError):
            yuen_upper_bound(0.5, 0)

    @pytest.mark.parametrize("fn", [yuen_upper_bound,
                                    markov_individual_bound])
    @pytest.mark.parametrize("eps_bar", [-0.1, 1.5, math.nan])
    def test_eps_bar_outside_unit_interval(self, fn, eps_bar):
        with pytest.raises(ValueError, match=r"eps_bar must be in \[0, 1\]"):
            fn(eps_bar, 4)

    def test_monotone_grid(self):
        eps_grid = np.logspace(-12, 0, 30)
        values = [yuen_upper_bound(e, 16).log2_value for e in eps_grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        l_grid = range(1, 40)
        values = [yuen_upper_bound(1e-3, l).log2_value for l in l_grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_spike_witness_tightness(self):
        # the spike key law nearly saturates the bound: gap at most 2^-l
        for l in (4, 8, 10):
            for eps in (2.0 ** -2, 2.0 ** -4):
                spike = Distribution.spike(l, eps, 0)
                delta = statistical_distance(spike, Distribution.uniform(l))
                guess = guessing_probability(spike)
                bound = yuen_upper_bound(delta, l).value
                assert guess <= bound + 1e-15
                assert bound - guess <= 2.0 ** -l + 1e-15


class TestMarkovIndividualBound:
    def test_headline_parameters(self):
        lp = markov_individual_bound(1e-6, 10 ** 4)
        assert lp.log10 == pytest.approx(-2.0, abs=1e-9)

    def test_zero_distance(self):
        assert markov_individual_bound(0.0, 12).value == 2.0 ** -12

    def test_tiny_distance_cube_root(self):
        lp = markov_individual_bound(1e-14, 10 ** 4)
        assert lp.value == pytest.approx(2.1544346900318823e-05, rel=1e-12)

    def test_monotone_in_eps(self):
        grid = np.logspace(-15, 0, 25)
        values = [markov_individual_bound(e, 64).log2_value for e in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_length_validated(self):
        with pytest.raises(ValueError, match="key length must be >= 1"):
            markov_individual_bound(0.1, 0)


class TestLeakageProfile:
    def test_headline_parameters(self):
        profile = leakage_profile(10 ** 4, 1e-2)
        assert profile.f == pytest.approx(6.643856189774724, abs=1e-12)
        assert profile.leaked_bits == pytest.approx(1505.149978319906, abs=1e-9)

    def test_half(self):
        profile = leakage_profile(100, 0.5)
        assert profile.f == 1.0
        assert profile.leaked_bits == 100.0

    def test_full_entropy_eps(self):
        profile = leakage_profile(16, 2.0 ** -16)
        assert profile.f == 16.0
        assert profile.leaked_bits == 1.0

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                leakage_profile(8, bad)

    def test_length_validated(self):
        with pytest.raises(ValueError, match="key length must be >= 1"):
            leakage_profile(0, 0.5)


class TestRequiredEpsilon:
    def test_headline_length(self):
        lp = required_epsilon(10 ** 4)
        assert lp.log10 == pytest.approx(-3010.2999566398119, abs=0.1)

    def test_single_bit(self):
        assert required_epsilon(1).value == 0.5

    def test_length_validated(self):
        with pytest.raises(ValueError, match="key length must be >= 1"):
            required_epsilon(0)

    def test_ten_bits(self):
        assert required_epsilon(10).value == pytest.approx(9.765625e-4,
                                                           rel=1e-12)


class TestPipelineEfficiency:
    def test_reference_rates(self):
        ratio = pipeline_efficiency(50e9, 300e3)
        assert type(ratio) is float and ratio == 6e-6
        assert not ratio > 1.0

    def test_equal_rates(self):
        assert pipeline_efficiency(1e6, 1e6) == 1.0

    def test_inverted_flagged(self):
        # above 1, the key rate exceeds the raw rate
        ratio = pipeline_efficiency(100.0, 250.0)
        assert ratio == 2.5
        assert ratio > 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            pipeline_efficiency(0.0, 1.0)
        with pytest.raises(ValueError):
            pipeline_efficiency(1.0, -2.0)

    @pytest.mark.parametrize("raw", [5e-324, np.float64(5e-324)], ids=repr)
    def test_overflowing_quotient_saturates(self, raw):
        # 1 / 5e-324 is past the float range: the ratio stays finite
        ratio = pipeline_efficiency(raw, 1.0)
        assert ratio == sys.float_info.max
        assert ratio > 1.0

    @pytest.mark.parametrize("rates", [(math.nan, 1.0), (1.0, math.nan),
                                       (math.inf, 1.0), (1.0, math.inf),
                                       (HUGE, 1.0), (1.0, HUGE)])
    def test_non_finite_rates_rejected(self, rates):
        name, bad = (("raw_rate_bps", rates[0]) if rates[1] == 1.0
                     else ("key_rate_bps", rates[1]))
        message = (f"{name} must be in the float range, got an integer of "
                   "16610 bits" if bad is HUGE
                   else f"{name} must be in (0, inf), got {bad}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pipeline_efficiency(*rates)


class TestFiniteKeyParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteKeyParams(n=0, q=0.01)
        with pytest.raises(ValueError):
            FiniteKeyParams(n=10, q=0.6, mu=0.5)
        with pytest.raises(ValueError):
            FiniteKeyParams(n=10, q=0.01, p_fail=0.0)
        with pytest.raises(TypeError):  # eps_bar is the formula's argument
            FiniteKeyParams(n=10, q=0.01, eps_bar=0.5)

    def test_leak_convention(self):
        from keysec import binary_entropy
        p = FiniteKeyParams(n=1000, q=0.05)
        assert p.effective_leak_ec == pytest.approx(
            1.1 * 1000 * binary_entropy(0.05), abs=1e-9)
        explicit = FiniteKeyParams(n=1000, q=0.05, leak_ec=123.0)
        assert explicit.effective_leak_ec == 123.0


class TestExtractableKeyLength:
    def test_entropy_term_zero(self):
        p = FiniteKeyParams(n=1000, q=0.25, mu=0.25, leak_ec=0.0,
                            p_fail=1e-10, eps_cor=1e-15)
        assert extractable_key_length(p, 1e-10) == 0

    def test_frozen_high_precision_value(self):
        # value fixed by a 60-digit recomputation of the same formula
        p = FiniteKeyParams(n=10 ** 6, q=0.02, mu=0.005, p_fail=1e-10,
                            eps_cor=1e-15)
        assert extractable_key_length(p, 1e-10) == 675670

    def test_monotone_in_eps_bar(self):
        p = FiniteKeyParams(n=10 ** 6, q=0.02, mu=0.005, p_fail=1e-10,
                            eps_cor=1e-15)
        assert extractable_key_length(p, 1e-3) >= \
            extractable_key_length(p, 1e-12)

    @pytest.mark.parametrize("eps_bar", [0.0, 1.5, math.nan])
    def test_eps_bar_range(self, eps_bar):
        with pytest.raises(ValueError, match="eps_bar must be in"):
            extractable_key_length(FiniteKeyParams(n=100, q=0.01), eps_bar)

    def test_requires_eps_bar(self):
        with pytest.raises(TypeError):
            extractable_key_length(FiniteKeyParams(n=100, q=0.01))

    def test_monotone_grid_all_knobs(self):
        base = dict(n=10 ** 5, q=0.03, mu=0.002, p_fail=1e-8, eps_cor=1e-12)

        def length(eps_bar=1e-9, **override):
            return extractable_key_length(
                FiniteKeyParams(**{**base, **override}), eps_bar)

        for q1, q2 in [(0.01, 0.05), (0.03, 0.08)]:
            assert length(q=q1) >= length(q=q2)
        assert length(mu=0.0) >= length(mu=0.01)
        assert length(leak_ec=100.0) >= length(leak_ec=5000.0)
        assert length(eps_bar=1e-6) >= length(eps_bar=1e-12)
        assert length(eps_cor=1e-6) >= length(eps_cor=1e-14)
        assert length(n=2 * 10 ** 5) >= length(n=10 ** 5)


class TestRateSolver:
    def test_large_block_reference_rate(self):
        solution = epsilon_for_security_rate(1e-14, default_rate_params(10 ** 7))
        assert 1e-2 <= solution.rate < 1.0
        assert solution.eps_bar / solution.l == pytest.approx(1e-14, rel=0.05)

    def test_small_block_vanishes(self):
        with pytest.raises(NoSolutionError, match="vanishes"):
            epsilon_for_security_rate(1e-14, default_rate_params(10 ** 4))

    def test_hopeless_block_no_solution(self):
        with pytest.raises(NoSolutionError):
            epsilon_for_security_rate(1.0, default_rate_params(100))

    def test_no_key_at_any_eps_bar(self):
        # L(1) = 0 at n = 100: no ratio to report, so no "vanishes" figure
        with pytest.raises(NoSolutionError, match="no positive key length"):
            epsilon_for_security_rate(1.0, default_rate_params(100))

    @pytest.mark.parametrize("s_target", [
        sys.float_info.max, np.float64(sys.float_info.max),
        np.float32(np.finfo(np.float32).max), np.float16(2.0)], ids=repr)
    def test_target_above_one_has_no_root(self, s_target):
        # eps_bar = s l passes 1 at every l; s l is never formed, so a
        # numpy target cannot overflow (tier-1 turns warnings into errors)
        with pytest.raises(NoSolutionError, match="no positive key length"):
            epsilon_for_security_rate(s_target, default_rate_params(10 ** 4))

    def test_target_validated(self):
        with pytest.raises(ValueError):
            epsilon_for_security_rate(0.0, default_rate_params(10 ** 6))

    def test_solution_internally_consistent(self):
        params = default_rate_params(10 ** 6)
        solution = epsilon_for_security_rate(1e-12, params)
        recomputed = extractable_key_length(params, solution.eps_bar)
        assert recomputed == solution.l
        assert solution.rate == solution.l / params.n


    def test_logarithmic_evaluation_count(self, monkeypatch):
        # bisection over 3 <= l < L(1), then l = 1, 2 and the candidate
        rng = np.random.default_rng(28)
        calls = []

        def counted(params, eps_bar):
            calls.append(eps_bar)
            return extractable_key_length(params, eps_bar)

        monkeypatch.setattr(bounds, "extractable_key_length", counted)
        for _ in range(250):
            params = FiniteKeyParams(n=int(10 ** rng.uniform(3, 9)),
                                     q=float(rng.uniform(0.0, 0.11)))
            s_target = float(10 ** rng.uniform(-16, -8))
            top = extractable_key_length(params, 1.0)
            calls.clear()
            try:
                epsilon_for_security_rate(s_target, params)
            except NoSolutionError:
                pass
            assert len(calls) <= math.ceil(math.log2(max(top, 2))) + 3


def _least_root_by_scan(s_target, params):
    # every l from 1 up to L(1), stopping where eps_bar = s l would pass 1
    for l in range(1, extractable_key_length(params, 1.0) + 1):
        if s_target * l > 1.0:
            return None
        if extractable_key_length(params, s_target * l) == l:
            return l
    return None


def _closest_ratio(message):
    # the figure in "closest achievable eps_bar/l is <x> (l=<k>)"
    return float(message.split("eps_bar/l is ")[1].split()[0])


class TestLeastRoot:
    """The solver returns the least root, checked by scanning every l."""

    def test_brute_force_scan(self):
        # L(1) runs from 86 to 191 on this grid, so the scan is short
        ns = list(range(10 ** 4, 2 * 10 ** 4 + 1, 1000)) + [11137, 11236]
        solved = unsolved = 0
        for n in ns:
            params = default_rate_params(n)
            for s_target in 10.0 ** np.linspace(-15.0, -12.0, 31):
                s_target = float(s_target)
                expected = _least_root_by_scan(s_target, params)
                if expected is None:
                    unsolved += 1
                    with pytest.raises(NoSolutionError):
                        epsilon_for_security_rate(s_target, params)
                    continue
                solved += 1
                solution = epsilon_for_security_rate(s_target, params)
                assert solution.l == expected, (n, s_target)
                assert solution.eps_bar == s_target * expected
                assert solution.rate == expected / n
        assert solved > 100 and unsolved > 20  # both outcomes exercised

    @pytest.mark.parametrize("n, s_target", [(11236, 1.8e-15),
                                             (11137, 2.5e-15)])
    def test_root_at_one_bit(self, n, s_target):
        # a bisection on eps_bar / l >= s returned l = 7 here, a later root
        # at n = 11236 and no root at all at n = 11137
        solution = epsilon_for_security_rate(s_target, default_rate_params(n))
        assert (solution.l, solution.eps_bar) == (1, s_target)

    def test_extreme_target_solves(self):
        params = default_rate_params(10 ** 7)
        solution = epsilon_for_security_rate(1e-300, params)
        assert solution.l == 102599
        assert solution.eps_bar == 1e-300 * 102599
        assert extractable_key_length(params, solution.eps_bar) == solution.l
        # least: 1 and 2 are no roots, and L(s l) > l just below the answer
        assert extractable_key_length(params, 1e-300) != 1
        assert extractable_key_length(params, 2e-300) != 2
        assert extractable_key_length(params, 1e-300 * 102598) > 102598

    @pytest.mark.parametrize("s_target", [5e-324, 1e-320])
    def test_subnormal_target(self, s_target):
        # 1 / s_target is inf here; the search never forms it
        solution = epsilon_for_security_rate(s_target,
                                             default_rate_params(10 ** 7))
        assert solution.eps_bar == s_target * solution.l
        with pytest.raises(NoSolutionError, match="vanishes"):
            epsilon_for_security_rate(s_target, default_rate_params(10 ** 4))

    def test_closest_ratio_is_the_least(self):
        with pytest.raises(NoSolutionError) as exc:
            epsilon_for_security_rate(1e-14, default_rate_params(10 ** 4))
        assert "closest achievable eps_bar/l is 7.666e-14 (l=3)" in \
            str(exc.value)

    @pytest.mark.parametrize("n", [10 ** 4, 11137, 15000, 20000])
    def test_closest_ratio_is_exact(self, n):
        # just above the printed figure a root exists, just below none
        params = default_rate_params(n)
        with pytest.raises(NoSolutionError) as exc:
            epsilon_for_security_rate(1e-300, params)
        least = _closest_ratio(str(exc.value))
        assert epsilon_for_security_rate(least * 1.001, params).l == 3
        with pytest.raises(NoSolutionError, match="vanishes"):
            epsilon_for_security_rate(least * 0.999, params)

    def test_target_above_every_ratio(self):
        with pytest.raises(NoSolutionError, match="no positive key length"):
            epsilon_for_security_rate(0.5, default_rate_params(10 ** 4))


class TestKeyLengthFloorMpmath:
    """The floor in extractable_key_length against 50-digit mpmath.

    As in the benchmark's oracle, the result must be the floor of the
    exact value, except that within 1e-6 of an integer either neighbour
    is accepted: binary64 cannot place the value on one side there.
    """

    @staticmethod
    def unfloored(params, eps_bar):
        # the formula with the defaults' Leak_EC = 1.1 n h(Q) and mu = 0
        with mpmath.workdps(50):
            q = mpmath.mpf(params.q)
            h = -q * mpmath.log(q, 2) - (1 - q) * mpmath.log(1 - q, 2)
            penalty = mpmath.log(2 * mpmath.mpf(params.p_fail)
                                 / (mpmath.mpf(eps_bar) ** 2
                                    * mpmath.mpf(params.eps_cor)), 2)
            return (params.n * (1 - h) - mpmath.mpf(1.1) * params.n * h
                    - penalty)

    @staticmethod
    def agrees(length, exact):
        floor = int(mpmath.floor(exact))
        if length == max(0, floor):
            return True
        frac = float(exact - floor)
        return min(frac, 1.0 - frac) < 1e-6 and abs(length - floor) <= 1

    def step_start(self, params, k, shift):
        # the float eps_bar at which the exact formula reaches k + shift;
        # a normal float for the k used here, so the shift survives rounding
        with mpmath.workdps(50):
            top = self.unfloored(params, 1.0)
            return float(mpmath.mpf(2) ** ((k + shift - top) / 2))

    @pytest.mark.parametrize("n, ks", [
        (10 ** 4, range(1, 87)),
        (10 ** 7, [102599, 104498, 104499, 104500, 104559])])
    def test_step_starts(self, n, ks):
        params = default_rate_params(n)
        assert extractable_key_length(params, 1.0) == max(ks)
        for k in ks:
            for shift in (-0.5, -1e-10, 0.0, 1e-10):
                eps_bar = self.step_start(params, k, shift)
                exact = self.unfloored(params, eps_bar)
                if shift != -0.5:  # the probe sits where the floor is tight
                    assert abs(exact - k) < 1e-9, (k, shift)
                assert self.agrees(extractable_key_length(params, eps_bar),
                                   exact), \
                    (k, shift)

    @pytest.mark.parametrize("n, s_target", [
        (10 ** 4, 1e-12), (11236, 1.8e-15), (11137, 2.5e-15),
        (10 ** 7, 1e-14), (10 ** 7, 1e-300), (10 ** 7, 5e-324)])
    def test_solver_roots(self, n, s_target):
        params = default_rate_params(n)
        solution = epsilon_for_security_rate(s_target, params)
        assert self.agrees(solution.l, self.unfloored(params,
                                                      solution.eps_bar))


class TestNonFiniteInput:
    @pytest.mark.parametrize("field", ["q", "mu"])
    def test_nan_error_rates_rejected(self, field):
        name = {"q": "Q", "mu": "mu"}[field]
        with pytest.raises(ValueError, match=f"^{name} must be in "
                                             r"\[0, 1\], got nan$"):
            FiniteKeyParams(n=1000, **{"q": 0.05, field: math.nan})

    @pytest.mark.parametrize("leak", [math.inf, math.nan,
                                      pytest.param(HUGE, id="10**5000")])
    def test_non_finite_leak_rejected(self, leak):
        with pytest.raises(ValueError, match="leak_ec"):
            FiniteKeyParams(n=1000, q=0.05, leak_ec=leak)

    def test_nan_security_rate_is_a_validation_error(self):
        with pytest.raises(ValueError, match="s_target"):
            epsilon_for_security_rate(math.nan, default_rate_params(10**7))

    def test_infinite_security_rate_is_a_validation_error(self):
        with pytest.raises(ValueError, match="s_target"):
            epsilon_for_security_rate(math.inf, default_rate_params(10**7))

    def test_integer_past_the_floats_is_a_validation_error(self):
        with pytest.raises(ValueError, match="s_target"):
            epsilon_for_security_rate(HUGE, default_rate_params(10**7))

    @pytest.mark.parametrize("call, message", [
        (lambda: LogProb(HUGE), "log2_value must be in [-inf, 0]"),
        (lambda: leakage_profile(10, HUGE), "eps must be in (0, 1)"),
        (lambda: FiniteKeyParams(n=10, q=0.1, p_fail=HUGE),
         "p_fail must be in (0, 1]"),
        (lambda: extractable_key_length(FiniteKeyParams(n=10, q=0.1), HUGE),
         "eps_bar must be in (0, 1]"),
    ], ids=["LogProb", "leakage_profile", "FiniteKeyParams",
            "extractable_key_length"])
    def test_huge_integer_shown_by_bit_length(self, call, message):
        shown = f"{message}, got an integer of 16610 bits"
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
            call()


class TestLengthsBeyondExactFloats:
    # above 2^53 a length is no longer an exact float; such lengths are
    # rejected instead of overflowing or rounding -l
    @pytest.mark.parametrize("fn", [
        lambda l: yuen_upper_bound(1e-6, l),
        lambda l: markov_individual_bound(1e-6, l),
        required_epsilon,
        lambda l: leakage_profile(l, 0.5),
    ])
    def test_key_length_capped(self, fn):
        fn(2**53)  # the cap itself is accepted
        for l in (2**53 + 1, 10**400):
            with pytest.raises(ValueError, match="key length must be >= 1"):
                fn(l)

    def test_block_length_capped(self):
        FiniteKeyParams(n=2**53, q=0.05)
        for n in (2**53 + 1, 10**400):
            with pytest.raises(ValueError, match="block length n"):
                FiniteKeyParams(n=n, q=0.05)


class TestMpmathOracle:
    """Log-domain bounds against 60-digit mpmath at 1e-15 relative error."""

    REL = 1e-15

    def close(self, got, exact):
        return abs(mpmath.mpf(got) - exact) <= self.REL * abs(exact)

    def test_log2_add_random_exponents(self):
        rng = np.random.default_rng(2014)
        with mpmath.workdps(60):
            for a, b in rng.uniform(-2000.0, 0.0, size=(500, 2)):
                exact = mpmath.log(mpmath.mpf(2) ** a + mpmath.mpf(2) ** b, 2)
                # the result can be near 0, so the error is scaled by >= 1
                assert abs(mpmath.mpf(log2_add(a, b)) - exact) <= \
                    self.REL * max(1, abs(exact)), (a, b)

    def test_one_minus_pow2_normal_range(self):
        # log2(1 - 2^-l), about -2^-l / ln 2, is a normal float up to l = 1022
        with mpmath.workdps(60):
            for l in range(1, 1023):
                exact = mpmath.log1p(-mpmath.mpf(2) ** -l) / mpmath.log(2)
                lp = LogProb.one_minus_pow2(l)
                assert self.close(lp.log2_value, exact), l
                assert lp.log2_complement == -l

    @pytest.mark.parametrize("l", [1023, 1074, 1075, 10 ** 4, 10 ** 6])
    def test_one_minus_pow2_subnormal_range(self, l):
        # the value rounds to a subnormal or to 0; the complement stays exact
        with mpmath.workdps(60):
            exact = mpmath.log1p(-mpmath.mpf(2) ** -l) / mpmath.log(2)
            lp = LogProb.one_minus_pow2(l)
            assert abs(mpmath.mpf(lp.log2_value) - exact) <= 2.0 ** -1074
            assert lp.log2_complement == -l

    @pytest.mark.parametrize("eps_bar", [0.0, 1e-300, 1e-6, 1e-2, 1.0])
    @pytest.mark.parametrize("l", [1, 53, 1074, 10 ** 4, 10 ** 6])
    @pytest.mark.parametrize("fn, root", [(yuen_upper_bound, 1),
                                          (markov_individual_bound, 3)])
    def test_bounds(self, fn, root, eps_bar, l):
        with mpmath.workdps(60):
            # eps_bar^(1/root) + 2^-l, capped at 1
            exact = min(mpmath.mpf(0), mpmath.log(
                mpmath.root(mpmath.mpf(eps_bar), root)
                + mpmath.mpf(2) ** -l, 2))
            # exact is 0 where the cap applies, and then got must be 0 too
            assert self.close(fn(eps_bar, l).log2_value, exact)
