"""Independent reference computations for the benchmark's output checks.

Nothing here imports keysec.  Each function recomputes a quantity that a
benchmark operation produces, by a different route: pure-Python integer
arithmetic for SplitMix64 and GF(2) hashing, ``bisect`` over a CDF built
with Python floats for inverse-CDF sampling, ``math.fsum`` for sums, and
mpmath for closed forms that the program evaluates in floating point.
"""

from __future__ import annotations

import bisect
import itertools
import math

import mpmath

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Published first outputs of SplitMix64 for seed 0.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                    0x06C45D188009454F)


def splitmix64_at(seed: int, index: int) -> int:
    """Output ``index`` (0-based) of the counter-based SplitMix64 stream."""
    z = (seed + (index + 1) * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def uniform_at(seed: int, index: int) -> float:
    """The double in [0, 1) drawn for block ``index``: top 53 bits."""
    return (splitmix64_at(seed, index) >> 11) * 2.0 ** -53


def bernoulli_block_masses(bias: float, block_len: int) -> list[float]:
    """Block law of iid bits with P(1) = 0.5 + bias, MSB first.

    The product for each block is accumulated bit by bit from the most
    significant end, which is the order the program's outer products use.
    """
    p1 = 0.5 + bias
    bit = (1.0 - p1, p1)
    masses = list(bit)
    for _ in range(block_len - 1):
        masses = [m * b for m in masses for b in bit]
    return masses


def markov_block_masses(init1: float, p01: float, p11: float,
                        block_len: int) -> list[float]:
    """Block law of a one-bit Markov chain, MSB first."""
    trans = ((1.0 - p01, p01), (1.0 - p11, p11))
    masses = [1.0 - init1, init1]
    for _ in range(block_len - 1):
        masses = [m * trans[i & 1][b]
                  for i, m in enumerate(masses) for b in (0, 1)]
    return masses


def cdf(masses: list[float]) -> list[float]:
    total = math.fsum(masses)
    return list(itertools.accumulate(m / total for m in masses))


def inverse_cdf(cdf_values: list[float], u: float) -> int:
    return min(bisect.bisect_right(cdf_values, u), len(cdf_values) - 1)


def sample_agrees(cdf_values: list[float], seed: int, index: int,
                  sampled: int, tie_tol: float = 1e-12) -> bool:
    """Whether the program's block ``index`` matches the bisect oracle.

    The program normalises its CDF with a differently ordered sum, so a
    draw lying within ``tie_tol`` of a CDF boundary may land on either
    side; such a draw passes when the sampled value is that neighbour.
    """
    u = uniform_at(seed, index)
    expected = inverse_cdf(cdf_values, u)
    if expected == sampled:
        return True
    if abs(expected - sampled) != 1:
        return False
    boundary = cdf_values[min(expected, sampled)]
    return abs(u - boundary) <= tie_tol


def sample_counts(cdf_values: list[float], seed: int, count: int) -> list[int]:
    """Block counts of a whole sample, drawn by the pure-Python oracle."""
    counts = [0] * len(cdf_values)
    for i in range(count):
        counts[inverse_cdf(cdf_values, uniform_at(seed, i))] += 1
    return counts


def distance_to_uniform(masses) -> float:
    n = len(masses)
    return math.fsum(abs(float(m) - 1.0 / n) for m in masses) / 2.0


def tv_distance(a, b) -> float:
    return math.fsum(abs(float(x) - float(y)) for x, y in zip(a, b)) / 2.0


def empirical_distance(counts) -> float:
    total = sum(int(c) for c in counts)
    n = len(counts)
    return math.fsum(abs(int(c) / total - 1.0 / n) for c in counts) / 2.0


def bernoulli_distance_mp(bias: float, block_len: int) -> float:
    """sum_w C(l, w) |p1^w p0^(l-w) - 2^-l| / 2 in 40-digit arithmetic."""
    with mpmath.workdps(40):
        p1 = mpmath.mpf(0.5) + mpmath.mpf(bias)
        p0 = 1 - p1
        u = mpmath.mpf(2) ** (-block_len)
        total = mpmath.fsum(
            mpmath.binomial(block_len, w)
            * abs(p1 ** w * p0 ** (block_len - w) - u)
            for w in range(block_len + 1))
        return float(total / 2)


# -- GF(2) hashing and privacy amplification ----------------------------------


def toeplitz_rows(seed_bits: list[int], key_len: int,
                  out_len: int) -> list[list[int]]:
    """T[i][j] = seed[i + key_len - 1 - j]."""
    return [[seed_bits[i + key_len - 1 - j] for j in range(key_len)]
            for i in range(out_len)]


def toeplitz_hash(key_bits: list[int], seed_bits: list[int],
                  out_len: int) -> list[int]:
    rows = toeplitz_rows(seed_bits, len(key_bits), out_len)
    return [sum(t & k for t, k in zip(row, key_bits)) & 1 for row in rows]


def bits_of(value: int, length: int) -> list[int]:
    return [(value >> (length - 1 - i)) & 1 for i in range(length)]


def index_of(bits: list[int]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def hash_table(seed_bits: list[int], key_len: int, out_len: int) -> list[int]:
    """Hashed index of every key index, by row-mask parity."""
    rows = toeplitz_rows(seed_bits, key_len, out_len)
    masks = [index_of(row) for row in rows]
    table = []
    for key in range(1 << key_len):
        out = 0
        for mask in masks:
            out = (out << 1) | (bin(key & mask).count("1") & 1)
        table.append(out)
    return table


def guessing_after_hash(joint: list[list[float]], table: list[int],
                        out_len: int) -> float:
    """sum_e max_h P(hash = h, e), merging keys in index order."""
    n_e = len(joint[0])
    merged = [[0.0] * n_e for _ in range(1 << out_len)]
    for key, row in enumerate(joint):
        target = merged[table[key]]
        for e in range(n_e):
            target[e] += row[e]
    return math.fsum(max(merged[h][e] for h in range(1 << out_len))
                     for e in range(n_e))


def conditional_guessing(joint: list[list[float]]) -> float:
    return math.fsum(max(row[e] for row in joint)
                     for e in range(len(joint[0])))


# -- key estimation on an eps-spike key law ------------------------------------


def product_law_mass(p1_bits: list[float], x: int) -> mpmath.mpf:
    """Mass of x under independent bits with P(bit i = 1) = p1_bits[i]."""
    l = len(p1_bits)
    mass = mpmath.mpf(1)
    for i, p in enumerate(p1_bits):
        bit = (x >> (l - 1 - i)) & 1
        mass *= mpmath.mpf(p) if bit else 1 - mpmath.mpf(p)
    return mass


def coa_posterior(eps: float, l: int, k_star: int, c: int,
                  p1_bits: list[float]) -> tuple[float, int | None]:
    """MAP posterior and guess of the ciphertext-only attack.

    With every plaintext bit biased towards 0 the plaintext mode is
    x = 0, so the best key other than k* is k = c.  The guess is None
    when the two candidates are too close to call in floating point.
    """
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        bg = (1 - e) * mpmath.mpf(2) ** (-l)
        spike_term = (e + bg) * product_law_mass(p1_bits, c ^ k_star)
        rival_term = bg * product_law_mass(p1_bits, 0)
        p_c = e * product_law_mass(p1_bits, c ^ k_star) + bg
        posterior = max(spike_term, rival_term) / p_c
        guess = None
        if abs(spike_term - rival_term) > 1e-9 * max(spike_term, rival_term):
            guess = k_star if spike_term > rival_term else c
        return float(posterior), guess


def spike_max_mass(eps: float, l: int) -> float:
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        return float(e + (1 - e) * mpmath.mpf(2) ** (-l))


def kpa_posterior(eps: float, l: int, m: int) -> float:
    """(eps + (1-eps) 2^-l) / (eps + (1-eps) 2^-m) on a matching prefix."""
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        two = mpmath.mpf(2)
        return float((e + (1 - e) * two ** (-l)) / (e + (1 - e) * two ** (-m)))


def spike_distance(eps: float, l: int) -> float:
    """Distance of an eps-spike law from uniform: eps (1 - 2^-l)."""
    with mpmath.workdps(40):
        return float(mpmath.mpf(eps) * (1 - mpmath.mpf(2) ** (-l)))


def one_minus_pow2(l: int) -> float:
    with mpmath.workdps(40):
        return float(1 - mpmath.mpf(2) ** (-l))


# -- finite-key length ----------------------------------------------------------


def binary_entropy_mp(q) -> mpmath.mpf:
    q = mpmath.mpf(q)
    return -q * mpmath.log(q, 2) - (1 - q) * mpmath.log(1 - q, 2)


def key_length_mp(n: int, q: float, eps_bar: float, p_fail: float,
                  eps_cor: float, leak_factor: float = 1.1) -> mpmath.mpf:
    """n (1 - h(Q)) - leak_factor n h(Q) - log2(2 p_fail / (eps^2 eps_cor)),
    before the floor, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        h = binary_entropy_mp(q)
        penalty = mpmath.log(2 * mpmath.mpf(p_fail)
                             / (mpmath.mpf(eps_bar) ** 2
                                * mpmath.mpf(eps_cor)), 2)
        return n * (1 - h) - mpmath.mpf(leak_factor) * n * h - penalty


def key_length_agrees(length: int, n: int, q: float, eps_bar: float,
                      p_fail: float, eps_cor: float) -> bool:
    """Whether ``length`` is the floor of the formula at ``eps_bar``.

    A value within 1e-6 of an integer may floor either way in binary64,
    so both neighbours are accepted there.
    """
    exact = key_length_mp(n, q, eps_bar, p_fail, eps_cor)
    floor = int(mpmath.floor(exact))
    if length == max(0, floor):
        return True
    frac = float(exact - floor)
    return min(frac, 1.0 - frac) < 1e-6 and abs(length - floor) <= 1


# -- qubit states ---------------------------------------------------------------


def bloch_density(r: tuple[float, float, float]) -> list[list[complex]]:
    x, y, z = r
    return [[complex((1 + z) / 2, 0.0), complex(x / 2, -y / 2)],
            [complex(x / 2, y / 2), complex((1 - z) / 2, 0.0)]]


def qubit_trace_distance(r1, r2) -> float:
    return math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(r1, r2))) / 2.0


def qubit_overlap(r1, r2) -> float:
    return (1.0 + math.fsum(a * b for a, b in zip(r1, r2))) / 2.0


def qubit_measured_distance(r1, r2, n) -> float:
    """Projective measurement along unit vector n: |n . (r1 - r2)| / 2."""
    return abs(math.fsum(c * (a - b) for c, a, b in zip(n, r1, r2))) / 2.0


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)
