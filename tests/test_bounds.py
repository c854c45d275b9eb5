import math

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
from keysec.bounds import log2_add


class TestLogProb:
    def test_value_and_log10(self):
        lp = LogProb.from_log2(-10.0)
        assert lp.value == 2.0 ** -10
        assert lp.log10 == pytest.approx(-10 * math.log10(2), abs=1e-12)

    def test_rejects_positive_exponent(self):
        with pytest.raises(ValueError):
            LogProb(0.5)

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

    def test_log2_add(self):
        assert log2_add(-4.0, -4.0) == pytest.approx(-3.0, abs=1e-15)
        assert log2_add(-1.0, -math.inf) == -1.0

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
        report = pipeline_efficiency(50e9, 300e3)
        assert report.ratio == 6e-6
        assert not report.inverted

    def test_equal_rates(self):
        assert pipeline_efficiency(1e6, 1e6).ratio == 1.0

    def test_inverted_flagged(self):
        report = pipeline_efficiency(100.0, 250.0)
        assert report.ratio == 2.5
        assert report.inverted

    def test_domain(self):
        with pytest.raises(ValueError):
            pipeline_efficiency(0.0, 1.0)
        with pytest.raises(ValueError):
            pipeline_efficiency(1.0, -2.0)


class TestFiniteKeyParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteKeyParams(n=0, q=0.01)
        with pytest.raises(ValueError):
            FiniteKeyParams(n=10, q=0.6, mu=0.5)
        with pytest.raises(ValueError):
            FiniteKeyParams(n=10, q=0.01, p_fail=0.0)
        with pytest.raises(ValueError):
            FiniteKeyParams(n=10, q=0.01, eps_bar=1.5)

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
                            p_fail=1e-10, eps_cor=1e-15, eps_bar=1e-10)
        assert extractable_key_length(p) == 0

    def test_frozen_high_precision_value(self):
        # value fixed by a 60-digit recomputation of the same formula
        p = FiniteKeyParams(n=10 ** 6, q=0.02, mu=0.005, p_fail=1e-10,
                            eps_cor=1e-15, eps_bar=1e-10)
        assert extractable_key_length(p) == 675670

    def test_monotone_in_eps_bar(self):
        base = dict(n=10 ** 6, q=0.02, mu=0.005, p_fail=1e-10, eps_cor=1e-15)
        low = extractable_key_length(FiniteKeyParams(eps_bar=1e-12, **base))
        high = extractable_key_length(FiniteKeyParams(eps_bar=1e-3, **base))
        assert high >= low

    def test_requires_eps_bar(self):
        with pytest.raises(ValueError, match="eps_bar"):
            extractable_key_length(FiniteKeyParams(n=100, q=0.01))

    def test_monotone_grid_all_knobs(self):
        base = dict(n=10 ** 5, q=0.03, mu=0.002, p_fail=1e-8, eps_cor=1e-12,
                    eps_bar=1e-9)

        def length(**override):
            return extractable_key_length(FiniteKeyParams(**{**base, **override}))

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

    def test_target_validated(self):
        with pytest.raises(ValueError):
            epsilon_for_security_rate(0.0, default_rate_params(10 ** 6))

    def test_solution_internally_consistent(self):
        params = default_rate_params(10 ** 6)
        solution = epsilon_for_security_rate(1e-12, params)
        from dataclasses import replace
        recomputed = extractable_key_length(
            replace(params, eps_bar=solution.eps_bar))
        assert recomputed == solution.l
        assert solution.rate == solution.l / params.n


class TestNonFiniteInput:
    @pytest.mark.parametrize("field", ["q", "mu"])
    def test_nan_error_rates_rejected(self, field):
        with pytest.raises(ValueError, match="Q"):
            FiniteKeyParams(n=1000, **{"q": 0.05, field: math.nan})

    @pytest.mark.parametrize("leak", [math.inf, math.nan])
    def test_non_finite_leak_rejected(self, leak):
        with pytest.raises(ValueError, match="leak_ec"):
            FiniteKeyParams(n=1000, q=0.05, leak_ec=leak)

    def test_nan_security_rate_is_a_validation_error(self):
        with pytest.raises(ValueError, match="s_target"):
            epsilon_for_security_rate(math.nan, default_rate_params(10**7))
