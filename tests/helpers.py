"""Shared generators and independent oracles for the test suite."""

import tracemalloc

import numpy as np

from keysec import (BitString, DensityMatrix, Distribution, JointDistribution,
                    Povm, measured_distance, overlap)


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


def trace_product_batch(seed=19):
    """``overlap`` and ``measured_distance`` of 100 random state pairs at
    dimensions 2, 3, 4, 8 and 16, then the entries of ``DensityMatrix.pure``
    of 5 random complex vectors at each dimension 2 to 16, as ``float.hex``
    strings.

    Each state is a mixture of three outer products, scaled by its trace,
    and the measurement is the Fourier basis, so building the inputs calls
    no BLAS kernel (the PSD checks call LAPACK, but only to validate).
    """
    rng = np.random.default_rng(seed)

    def mixed_state(dim):
        vecs = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        m = sum(w * np.outer(v, v.conj()) for w, v in zip(rng.random(3), vecs))
        return DensityMatrix(m / m.trace().real)

    out = []
    for dim in (2, 3, 4, 8, 16):
        cols = np.exp(2j * np.pi * np.outer(np.arange(dim), np.arange(dim))
                      / dim)
        fourier = Povm([np.outer(c, c.conj()) / dim for c in cols])
        for _ in range(20):
            rho, sigma = mixed_state(dim), mixed_state(dim)
            out += [overlap(rho, sigma).hex(),
                    measured_distance(rho, sigma, fourier).hex()]
    for dim in range(2, 17):
        for _ in range(5):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            out += [x.hex() for x in DensityMatrix.pure(v).mat.view(float).flat]
    return out
