"""Tests of the benchmark's independent oracles against published values
and brute-force enumeration.  They import nothing from keysec."""

import itertools
import math

import pytest

import oracles


def test_splitmix64_published_seed0_outputs():
    assert tuple(oracles.splitmix64_at(0, i) for i in range(3)) \
        == oracles.SPLITMIX64_SEED0


def test_inverse_cdf_picks_first_block_whose_cdf_exceeds_u():
    cdf = oracles.cdf([0.25, 0.25, 0.5])
    assert [oracles.inverse_cdf(cdf, u) for u in (0.0, 0.2499, 0.25, 0.7,
                                                   0.9999)] == [0, 0, 1, 2, 2]


def test_sample_agrees_accepts_only_neighbours_at_a_tie():
    cdf = oracles.cdf([0.5, 0.5])
    u = oracles.uniform_at(7, 0)
    expected = oracles.inverse_cdf(cdf, u)
    assert oracles.sample_agrees(cdf, 7, 0, expected)
    assert not oracles.sample_agrees(cdf, 7, 0, 1 - expected)


@pytest.mark.parametrize("bias,block_len", [(1e-4, 8), (0.1, 5), (-0.2, 3)])
def test_bernoulli_distance_closed_form_matches_enumeration(bias, block_len):
    masses = oracles.bernoulli_block_masses(bias, block_len)
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-15)
    assert oracles.bernoulli_distance_mp(bias, block_len) == pytest.approx(
        oracles.distance_to_uniform(masses), rel=1e-12)


def test_markov_block_law_with_equal_rows_is_iid():
    iid = oracles.bernoulli_block_masses(0.1, 4)
    markov = oracles.markov_block_masses(0.6, 0.6, 0.6, 4)
    assert markov == pytest.approx(iid, rel=1e-15)


def test_toeplitz_routes_agree_and_identity_seed_is_identity():
    key_len, out_len = 6, 4
    for seed_value in (0b101100111, 0b000000001, 0b111111111):
        seed = oracles.bits_of(seed_value, key_len + out_len - 1)
        table = oracles.hash_table(seed, key_len, out_len)
        for key in range(1 << key_len):
            direct = oracles.toeplitz_hash(oracles.bits_of(key, key_len),
                                           seed, out_len)
            assert oracles.index_of(direct) == table[key]
    identity = [0] * (2 * key_len - 1)
    identity[key_len - 1] = 1
    assert oracles.hash_table(identity, key_len, key_len) \
        == list(range(1 << key_len))
    assert oracles.toeplitz_hash([1, 0, 1], [0, 1, 1, 0], 2) == [1, 1]


def test_hashing_never_lowers_guessing_probability():
    joint = [[(3 * k + e) % 7 / 100.0 for e in range(4)] for k in range(8)]
    before = oracles.conditional_guessing(joint)
    for seed_value in range(1 << 4):
        table = oracles.hash_table(oracles.bits_of(seed_value, 4), 3, 2)
        assert oracles.guessing_after_hash(joint, table, 2) >= before


def _spike(eps, l, k_star):
    bg = (1 - eps) * 2.0 ** -l
    return [bg + (eps if k == k_star else 0.0) for k in range(1 << l)]


def _product(p1_bits):
    l = len(p1_bits)
    return [float(oracles.product_law_mass(p1_bits, x)) for x in range(1 << l)]


@pytest.mark.parametrize("c", [0, 5, 37, 63])
def test_ciphertext_only_posterior_matches_enumeration(c):
    eps, l, k_star = 0.03, 6, 41
    p1_bits = [0.3, 0.35, 0.4, 0.45, 0.32, 0.38]
    p_k, p_x = _spike(eps, l, k_star), _product(p1_bits)
    joint = [p_k[k] * p_x[c ^ k] for k in range(1 << l)]
    best = max(range(1 << l), key=lambda k: (joint[k], -k))
    posterior, guess = oracles.coa_posterior(eps, l, k_star, c, p1_bits)
    assert posterior == pytest.approx(joint[best] / math.fsum(joint), rel=1e-13)
    assert guess == best
    assert oracles.spike_max_mass(eps, l) == pytest.approx(max(p_k), rel=1e-15)


def test_known_plaintext_posterior_matches_enumeration():
    eps, l, m, k_star = 0.01, 8, 3, 0b10110110
    p_k = _spike(eps, l, k_star)
    block = p_k[(k_star >> (l - m)) << (l - m):][:1 << (l - m)]
    assert oracles.kpa_posterior(eps, l, m) == pytest.approx(
        max(block) / math.fsum(block), rel=1e-13)


def test_spike_distance_matches_enumeration():
    p_k = _spike(0.2, 5, 3)
    assert oracles.spike_distance(0.2, 5) == pytest.approx(
        oracles.distance_to_uniform(p_k), rel=1e-13)


def test_key_length_formula_and_floor_tolerance():
    n, q = 10 ** 7, 0.1007
    h = -q * math.log2(q) - (1 - q) * math.log2(1 - q)
    eps = 1e-9
    floating = n * (1 - h) - 1.1 * n * h - (1 + math.log2(1e-10)
                                            - 2 * math.log2(eps)
                                            - math.log2(1e-15))
    exact = oracles.key_length_mp(n, q, eps, 1e-10, 1e-15)
    assert float(exact) == pytest.approx(floating, rel=1e-9)
    assert oracles.key_length_agrees(math.floor(exact), n, q, eps, 1e-10,
                                     1e-15)
    assert not oracles.key_length_agrees(math.floor(exact) + 5, n, q, eps,
                                         1e-10, 1e-15)


def _eigenvalues_2x2_hermitian(m):
    a, d, b = m[0][0].real, m[1][1].real, m[0][1]
    mid, rad = (a + d) / 2, math.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
    return mid - rad, mid + rad


def test_qubit_closed_forms_match_matrices():
    r1, r2, n = (0.3, -0.2, 0.5), (-0.1, 0.4, 0.2), (0.0, 0.6, 0.8)
    rho, sigma = oracles.bloch_density(r1), oracles.bloch_density(r2)
    diff = [[rho[i][j] - sigma[i][j] for j in range(2)] for i in range(2)]
    trace_norm = sum(abs(e) for e in _eigenvalues_2x2_hermitian(diff)) / 2
    assert oracles.qubit_trace_distance(r1, r2) == pytest.approx(trace_norm,
                                                                 abs=1e-15)
    overlap = sum(rho[i][j] * sigma[j][i]
                  for i, j in itertools.product(range(2), repeat=2)).real
    assert oracles.qubit_overlap(r1, r2) == pytest.approx(overlap, abs=1e-15)
    effect = oracles.bloch_density(n)
    p = sum(rho[i][j] * effect[j][i]
            for i, j in itertools.product(range(2), repeat=2)).real
    q = sum(sigma[i][j] * effect[j][i]
            for i, j in itertools.product(range(2), repeat=2)).real
    assert oracles.qubit_measured_distance(r1, r2, n) == pytest.approx(
        abs(p - q), abs=1e-15)
