"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
pass/fail lines.
"""

import time

import numpy as np

from helpers import random_distribution
from test_quantum_detect import (helstrom_sweep_oracle, random_density,
                                 random_two_outcome_povm)

from keysec import (BitString, ConditionalChannel, Distribution,
                    JointDistribution, NoSolutionError, ciphertext_only_attack,
                    contradiction_report, copy_vs_channel_gap, default_rate_params,
                    epsilon_for_security_rate, extractable_key_length,
                    helstrom_min_error, kpa_next_bits,
                    leakage_profile, markov_individual_bound, maximal_coupling,
                    measured_distance, min_mismatch_oracle,
                    pa_effect_on_guessing, pipeline_efficiency, required_epsilon,
                    sample_blocks, statistical_distance,
                    trace_distance_q, uniformity_failure_report,
                    yuen_upper_bound, BernoulliSource, DensityMatrix,
                    model_distance_to_uniform)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_headline_numbers():
    start = time.perf_counter()
    eps_bar, l = 1e-6, 10**4
    yuen = yuen_upper_bound(eps_bar, l)
    markov = markov_individual_bound(eps_bar, l)
    leak = leakage_profile(l, markov.value)
    required = required_epsilon(l)
    elapsed = time.perf_counter() - start
    checks = {
        "yuen log10 within 0.01 of -6": abs(yuen.log10 + 6.0) <= 0.01,
        "markov log10 within 1e-9 of -2": abs(markov.log10 + 2.0) <= 1e-9,
        "f within 0.001 of 6.644": abs(leak.f - 6.644) <= 1e-3,
        "leaked within 1 of 1505": abs(leak.leaked_bits - 1505) <= 1.0,
        "required log10 within 0.1 of -3010.3": abs(required.log10
                                                    + 3010.3) <= 0.1,
        "runtime under 1 s": elapsed < 1.0,
    }
    failed = [k for k, v in checks.items() if not v]
    report(1, not failed,
           f"yuen {yuen.log10:.4f}, markov {markov.log10:.12f}, "
           f"f {leak.f:.4f}, leaked {leak.leaked_bits:.2f}, "
           f"required {required.log10:.2f}, {elapsed * 1e3:.0f} ms"
           + (f"; FAILED {failed}" if failed else ""))


def test_criterion_02_pipeline_efficiency():
    value = pipeline_efficiency(5e10, 3e5)
    report(2, value == 6e-6, f"pipeline efficiency {value!r} == 6e-06 exactly")


def test_criterion_03_coupling_theorem_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst_gap = 0.0
    for _ in range(1000):
        p = random_distribution(rng, 3, zero_outcomes=2)
        q = random_distribution(rng, 3, zero_outcomes=2)
        delta = statistical_distance(p, q)
        oracle = min_mismatch_oracle(p, q)
        # the built coupling's diagonal is its overlap
        achieved = 1.0 - float(maximal_coupling(p, q).overlap.sum())
        worst_gap = max(worst_gap, abs(oracle - delta), abs(achieved - delta))
    violations = 0
    for _ in range(1000):
        bits = int(rng.integers(1, 3))
        n = 1 << bits
        weights = rng.random((n, n)) ** 2
        weights /= weights.sum()
        joint = JointDistribution(bits, bits, weights)
        p = Distribution(bits, weights.sum(axis=1))
        q = Distribution(bits, weights.sum(axis=0))
        mismatch = 1.0 - float(np.trace(weights))
        if statistical_distance(p, q) > mismatch + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-9 and violations == 0 and elapsed < 10.0
    report(3, ok, f"1000 pairs worst gap {worst_gap:.2e}, "
                  f"{violations} inequality violations, {elapsed:.1f} s")


def test_criterion_04_copy_channel_identity():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(100):
        bits = int(rng.integers(1, 4))
        p = random_distribution(rng, bits)
        rows = rng.random((1 << bits, 1 << bits)) ** 2
        rows /= rows.sum(axis=1, keepdims=True)
        gap = copy_vs_channel_gap(p, ConditionalChannel(bits, bits, rows))
        worst = max(worst, abs(gap.delta_joint - gap.mismatch))
    report(4, worst <= 1e-12,
           f"100 random (input, channel) pairs, worst |delta - mismatch| "
           f"= {worst:.2e}")


def test_criterion_05_contradiction_decoupling():
    rng = np.random.default_rng(1005)
    deltas = []
    exact = True
    for _ in range(100):
        p = random_distribution(rng, 4)
        rep = contradiction_report(p)
        exact = exact and rep.independent_failure == 0.9375
        deltas.append(rep.delta)
    varied = len({round(d, 10) for d in deltas}) > 90 and min(deltas) > 0.0
    report(5, exact and varied,
           f"independent failure fixed at 0.9375 in 100/100 runs while "
           f"delta spans [{min(deltas):.4f}, {max(deltas):.4f}]")


def test_criterion_06_helstrom_and_measurement():
    rng = np.random.default_rng(1006)
    worst_sweep = 0.0
    for _ in range(200):
        a, b = random_density(rng, 2), random_density(rng, 2)
        worst_sweep = max(worst_sweep, abs(
            helstrom_min_error(a, b, 0.5) - helstrom_sweep_oracle(a, b)))
    worst_classical = 0.0
    for _ in range(50):
        bits = int(rng.integers(1, 3))
        p = random_distribution(rng, bits)
        q = random_distribution(rng, bits)
        dp, dq = DensityMatrix.diagonal(p), DensityMatrix.diagonal(q)
        worst_classical = max(
            worst_classical,
            abs(trace_distance_q(dp, dq) - statistical_distance(p, q)),
            abs(helstrom_min_error(dp, dq, 0.5)
                - 0.5 * (1 - statistical_distance(p, q))))
    povm_violations = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        a, b = random_density(rng, dim), random_density(rng, dim)
        m = random_two_outcome_povm(rng, dim)
        if measured_distance(a, b, m) > trace_distance_q(a, b) + 1e-10:
            povm_violations += 1
    ok = worst_sweep <= 1e-4 and worst_classical <= 1e-10 \
        and povm_violations == 0
    report(6, ok, f"sweep gap {worst_sweep:.2e} (200 pairs), classical "
                  f"embedding gap {worst_classical:.2e}, "
                  f"{povm_violations}/1000 measured-distance violations")


def test_criterion_07_perfect_secrecy_and_sandwich():
    exact = True
    for l in range(1, 11):
        for p_x in (Distribution.uniform(l), Distribution.spike(l, 1.0, 0)):
            rep = ciphertext_only_attack(BitString(0, l), p_x,
                                         Distribution.uniform(l))
            exact = exact and rep.avg_success == 2.0 ** -l
    sandwich = True
    for l in range(2, 11):
        for eps in (2.0 ** -2, 2.0 ** -4, 2.0 ** -6):
            p_k = Distribution.spike(l, eps, BitString(0, l)).expand_dense()
            rep = ciphertext_only_attack(BitString(0, l),
                                         Distribution.spike(l, 1.0, 0), p_k)
            sandwich = sandwich and eps <= rep.avg_success <= eps + 2.0 ** -l
    report(7, exact and sandwich,
           "uniform-key success exactly 2^-l for l <= 10; spike success in "
           "[eps, eps + 2^-l] over the (l, eps) grid")


def test_criterion_08_known_prefix_prediction():
    l = 12
    at_m, at_m4 = [], []
    for m in (2, 4, 6):
        eps = 2.0 ** -m
        k_star = BitString.from_index(0b101100111010 & ((1 << l) - 1), l)
        p_k = Distribution.spike(l, eps, k_star).expand_dense()
        text = str(k_star)
        at_m.append(kpa_next_bits(p_k, BitString.from_str(text[:m]))
                    .map_posterior)
        at_m4.append(kpa_next_bits(p_k, BitString.from_str(text[:m + 4]))
                     .map_posterior)
    uniform_rep = kpa_next_bits(Distribution.uniform(l),
                                BitString(0, 5))
    ok = all(v >= 0.49 for v in at_m) and all(v >= 0.9 for v in at_m4) \
        and uniform_rep.map_posterior == 2.0 ** -(l - 5)
    report(8, ok, f"posterior at m bits {[f'{v:.3f}' for v in at_m]}, "
                  f"at m+4 bits {[f'{v:.3f}' for v in at_m4]}, uniform "
                  f"remainder exactly 2^-{l - 5}")


def test_criterion_09_hashing_never_helps_hider():
    rng = np.random.default_rng(1009)
    seeds = [BitString.from_index(v, 5) for v in range(32)]
    violations = 0
    for _ in range(20):
        weights = rng.random((16, 4)) ** 2
        joint = JointDistribution(4, 2, weights / weights.sum())
        rep = pa_effect_on_guessing(joint, 2, seeds)
        violations += sum(1 for a in rep.after if a < rep.before)
    report(9, violations == 0,
           f"{violations} violations of after >= before across all 32 "
           f"seeds x 20 random joints")


def test_criterion_10_finite_key_tradeoff():
    big = epsilon_for_security_rate(1e-14, default_rate_params(10**7))
    big_ok = 1e-2 <= big.rate < 1.0
    try:
        small = epsilon_for_security_rate(1e-14, default_rate_params(10**4))
        small_desc = f"rate {small.rate:.3e}"
        small_ok = small.rate <= big.rate / 10.0
    except NoSolutionError as exc:
        small_desc = "no-solution"
        small_ok = True
    params = default_rate_params(10**6)
    grid = np.logspace(-20, -1, 20)
    lengths = [extractable_key_length(params, float(e)) for e in grid]
    monotone = all(a <= b for a, b in zip(lengths, lengths[1:]))
    report(10, big_ok and small_ok and monotone,
           f"rate at n=1e7 is {big.rate:.4f}, n=1e4 gives {small_desc}, "
           f"key length monotone over the 20-point grid: {monotone}")


def test_criterion_11_rng_uniformity_decoupling():
    model = BernoulliSource(1e-4)
    bias_exact = model_distance_to_uniform(model, 1) == 1e-4
    block_len, count = 8, 10**6
    any_uniform = False
    failures_fixed = True
    deltas = []
    for seed in range(100):
        sample = sample_blocks(model, block_len, count, seed)
        rep = uniformity_failure_report(sample)
        any_uniform = any_uniform or rep.exactly_uniform
        failures_fixed = failures_fixed and (
            rep.independent_failure.value == 1 - 2.0 ** -block_len
            and rep.independent_failure.log2_complement == -block_len)
        deltas.append(rep.empirical_delta)
    ok = bias_exact and not any_uniform and failures_fixed
    report(11, ok,
           f"1-bit model delta exactly 1e-4: {bias_exact}; exactly_uniform "
           f"false in 100/100 runs at N=1e6; independent failure fixed at "
           f"1 - 2^-{block_len}; empirical delta range "
           f"[{min(deltas):.4f}, {max(deltas):.4f}]")
