"""Shared generators and independent oracles for the test suite."""

import tracemalloc

import numpy as np

from keysec import BitString, Distribution, JointDistribution


def bitstring(bits):
    """The BitString of a sequence of 0/1 ints, read most-significant first."""
    return BitString.from_str("".join(str(int(b)) for b in bits))


def random_distribution(rng, bits, zero_outcomes=0):
    """Random dense distribution; optionally force some outcomes to zero."""
    n = 1 << bits
    weights = rng.random(n) ** 2 + 1e-12
    if zero_outcomes:
        idx = rng.choice(n, size=zero_outcomes, replace=False)
        weights[idx] = 0.0
    return Distribution(bits, weights / weights.sum())


def random_joint(rng, x_bits, y_bits):
    weights = rng.random((1 << x_bits, 1 << y_bits)) ** 2
    return JointDistribution(x_bits, y_bits, weights / weights.sum())


def product_joint(p, q):
    """Joint law of independent X ~ p and Y ~ q."""
    return JointDistribution(p.outcome_bits, q.outcome_bits,
                             np.outer(p.masses, q.masses))


def event_set_distance_oracle(p, q):
    """max over all outcome subsets S of |p(S) - q(S)|, by enumeration."""
    a, b = p.masses, q.masses
    n = len(a)
    best = 0.0
    for mask in range(1 << n):
        pa = sum(a[i] for i in range(n) if mask >> i & 1)
        pb = sum(b[i] for i in range(n) if mask >> i & 1)
        best = max(best, abs(pa - pb))
    return best


def direct_sum_distance_oracle(p, q):
    """(1/2) sum |p(x) - q(x)| accumulated term by term via prob lookups."""
    total = 0.0
    for x in range(p.n_outcomes):
        total += abs(p.prob(x) - q.prob(x))
    return 0.5 * total


def traced_peak(call):
    """``call()`` and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
