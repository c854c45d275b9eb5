import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (bitstring, product_joint, random_distribution,
                     random_joint)
from keysec import (BitString, Distribution, JointDistribution,
                    ciphertext_only_attack, conditional_guessing_probability,
                    guessing_probability, identity_seed, kpa_next_bits,
                    pa_effect_on_guessing, statistical_distance,
                    toeplitz_hash)


def bit_list(length):
    return st.lists(st.integers(0, 1), min_size=length, max_size=length)


def toeplitz_matrix_oracle(k_bits, seed, out_len):
    """Explicit GF(2) matrix build and matrix-vector multiply."""
    t = np.zeros((out_len, k_bits), dtype=int)
    for i in range(out_len):
        for j in range(k_bits):
            t[i, j] = seed[i + (k_bits - 1) - j]
    return t


def hash_oracle(k, seed, out_len):
    t = toeplitz_matrix_oracle(len(k), list(seed.bits), out_len)
    return bitstring((t @ np.array(k.bits)) % 2)


class TestOtpEncrypt:
    def test_zero_key_identity(self):
        x = BitString.from_str("10110")
        assert x ^ BitString(0, 5) == x

    def test_self_cancellation(self):
        x = BitString.from_str("10110")
        assert x ^ x == BitString(0, 5)

    def test_bitwise_definition(self):
        c = BitString.from_str("1010") ^ BitString.from_str("0110")
        assert str(c) == "1100"

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            BitString.from_str("101") ^ BitString.from_str("10")

    @given(bit_list(6), bit_list(6))
    def test_self_inverse(self, xs, ks):
        x, k = bitstring(xs), bitstring(ks)
        assert (x ^ k) ^ k == x


class TestSpikeDistribution:
    def test_zero_eps_is_uniform(self):
        d = Distribution.spike(4, 0.0, BitString.from_str("1001"))
        assert np.array_equal(d.expand_dense().masses, np.full(16, 1 / 16))

    def test_eps_one_is_point_mass(self):
        d = Distribution.spike(4, 1.0, BitString.from_str("1001"))
        assert d.prob(BitString.from_str("1001")) == 1.0
        assert guessing_probability(d) == 1.0

    def test_distance_example(self):
        d = Distribution.spike(8, 2.0 ** -4, BitString(0, 8))
        total = sum(abs(d.prob(x) - 2.0 ** -8) for x in range(256))
        assert statistical_distance(d, Distribution.uniform(8)) == \
            pytest.approx(0.5 * total, abs=1e-15)
        assert statistical_distance(d, Distribution.uniform(8)) == \
            pytest.approx(2.0 ** -4 * (1 - 2.0 ** -8), abs=1e-15)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            Distribution.spike(4, 0.1, BitString.from_str("101"))


class TestCiphertextOnlyAttack:
    def test_uniform_key_exact_success(self):
        # perfect secrecy: a uniformly keyed pad is guessed at exactly 2^-l
        for l in range(1, 11):
            p_k = Distribution.uniform(l)
            for p_x in (Distribution.uniform(l),
                        Distribution.spike(l, 1.0, 1)):
                report = ciphertext_only_attack(BitString(0, l), p_x, p_k)
                assert report.avg_success == 2.0 ** -l

    def test_point_mass_plaintext_posterior(self):
        # with the plaintext pinned, Bayes on the observed ciphertext
        # collapses onto key = c xor x0
        x0 = BitString.from_str("101")
        p_x = Distribution.spike(3, 1.0, x0)
        p_k = Distribution(3, np.full(8, 0.125))
        c = BitString.from_str("011")
        report = ciphertext_only_attack(c, p_x, p_k)
        assert report.map_guess == c ^ x0
        assert report.map_posterior == pytest.approx(1.0, abs=1e-12)
        assert report.avg_success == 0.125

    def test_point_mass_plaintext_success_reduces_to_guessing(self):
        rng = np.random.default_rng(9)
        p_k = random_distribution(rng, 4)
        p_x = Distribution.spike(4, 1.0, 7)
        report = ciphertext_only_attack(BitString(0, 4), p_x, p_k)
        assert report.avg_success == guessing_probability(p_k)

    def test_spike_key_enumerated_over_ciphertexts(self):
        # independent check: enumerate all 256 ciphertexts, weigh each by
        # its model probability, and score the best prior key guess
        l = 8
        p_k = Distribution.spike(l, 2.0 ** -4,
                                 BitString(0, l)).expand_dense()
        p_x = Distribution.spike(l, 1.0, 3)
        km = p_k.masses
        xm = p_x.masses
        oracle = 0.0
        for c in range(1 << l):
            p_c = sum(km[k] * xm[c ^ k] for k in range(1 << l))
            oracle += p_c * km.max()
        report = ciphertext_only_attack(BitString(0, l), p_x, p_k)
        assert report.avg_success == pytest.approx(oracle, abs=1e-12)
        assert report.avg_success == pytest.approx(
            2.0 ** -4 + (1 - 2.0 ** -4) * 2.0 ** -8, abs=1e-15)

    def test_zero_probability_ciphertext(self):
        p_x = Distribution.spike(2, 1.0, 0)
        p_k = Distribution.spike(2, 1.0, 0)
        with pytest.raises(ValueError, match="zero probability"):
            ciphertext_only_attack(BitString.from_str("01"), p_x, p_k)

    def test_length_validation(self):
        with pytest.raises(ValueError, match="lengths"):
            ciphertext_only_attack(BitString.from_str("01"),
                                   Distribution.uniform(3),
                                   Distribution.uniform(2))

    def test_success_bounds(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            l = int(rng.integers(1, 7))
            report = ciphertext_only_attack(
                BitString(0, l), random_distribution(rng, l),
                random_distribution(rng, l))
            assert 2.0 ** -l - 1e-15 <= report.avg_success <= 1.0

    def test_near_tie_picks_larger_mass(self):
        # keys 000 and 001 carry adjacent floats just below 1/4; the law
        # totals 1 - 3 2^-53, inside the constructor's 8 2^-53 window, so
        # it is stored as given, and dividing the row by P(c) = (1 -
        # 3 2^-53) / 8 lifts both to 0.25000000000000006, where floats are
        # twice as far apart, so a normalized argmax would fall on 000
        given = [0.24999999999999994, 0.24999999999999997,
                 0.019176745793575808, 0.053021588390067105,
                 0.17940439168987637, 0.1303453816142324,
                 0.021075290097236462, 0.09697660241501169]
        p_k = Distribution(3, given)
        masses = p_k.masses
        assert masses.tolist() == given and masses.sum() == 1 - 3 * 2.0 ** -53
        assert masses[0] < masses[1]
        assert masses[0] / masses.sum() == masses[1] / masses.sum()
        for c in range(8):
            report = ciphertext_only_attack(BitString.from_index(c, 3),
                                            Distribution.uniform(3), p_k)
            assert report.map_guess == BitString.from_str("001")
            assert report.map_posterior == masses[1] / masses.sum()


class TestKpaNextBits:
    def test_uniform_key(self):
        p_k = Distribution.uniform(10)
        report = kpa_next_bits(p_k, BitString.from_str("1101"))
        assert report.map_posterior == 2.0 ** -6
        assert report.avg_success == 2.0 ** -6

    def test_spike_witness_at_matching_prefix(self):
        # known bits worth log2(1/eps): the remainder is pinned down to
        # roughly even odds, exact value 1/(2 - 2^-m) plus a 2^-(l-m) sliver
        m, l = 4, 12
        text = "101100111010"
        k_star = BitString.from_str(text)
        p_k = Distribution.spike(l, 2.0 ** -m, k_star).expand_dense()
        report = kpa_next_bits(p_k, BitString.from_str(text[:m]))
        assert report.map_guess == BitString.from_str(text[m:])
        eps = 2.0 ** -m
        exact = (eps + (1 - eps) * 2.0 ** -l) / (eps + (1 - eps) * 2.0 ** -m)
        assert report.map_posterior == pytest.approx(exact, abs=1e-12)
        assert report.map_posterior >= 0.49
        assert report.map_posterior == pytest.approx(1 / (2 - 2.0 ** -m),
                                                     abs=2.0 ** -(l - m))

    def test_spike_witness_with_extra_known_bits(self):
        m, l = 4, 12
        text = "101100111010"
        k_star = BitString.from_str(text)
        p_k = Distribution.spike(l, 2.0 ** -m, k_star).expand_dense()
        report = kpa_next_bits(p_k, BitString.from_str(text[:m + 4]))
        assert report.map_guess == BitString.from_str(text[m + 4:])
        assert report.map_posterior >= 0.9

    def test_brute_force_conditionals(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            l = int(rng.integers(3, 8))
            m = int(rng.integers(1, l))
            p_k = random_distribution(rng, l)
            prefix = BitString.from_index(int(rng.integers(1 << m)), m)
            report = kpa_next_bits(p_k, prefix)
            # oracle: enumerate every key, keep those matching the prefix
            masses = {}
            for k in range(1 << l):
                text = str(BitString.from_index(k, l))
                if BitString.from_str(text[:m]) == prefix:
                    masses[text[m:]] = p_k.prob(k)
            total = sum(masses.values())
            best = max(sorted(masses), key=lambda r: masses[r])
            assert report.map_posterior == pytest.approx(
                max(masses.values()) / total, abs=1e-12)
            assert masses[str(report.map_guess)] == pytest.approx(
                max(masses.values()), abs=1e-15)

    def test_zero_probability_prefix(self):
        p_k = Distribution.spike(4, 1.0, 0)
        with pytest.raises(ValueError, match="zero probability"):
            kpa_next_bits(p_k, BitString.from_str("11"))

    def test_prefix_length_validated(self):
        p_k = Distribution.uniform(4)
        with pytest.raises(ValueError):
            kpa_next_bits(p_k, BitString.from_str("1111"))

    def test_near_tie_picks_larger_mass(self):
        # remainders 00 and 01 carry adjacent floats that division by the
        # prefix mass rounds to one value
        first = [0.12499999999670829, 0.1249999999967083,
                 0.10183169574810147, 0.10722114947967215]
        p_k = Distribution(3, first + [(1.0 - sum(first)) / 4] * 4)
        block = p_k.masses[:4]
        assert block[0] < block[1]
        assert block[0] / block.sum() == block[1] / block.sum()
        report = kpa_next_bits(p_k, BitString.from_str("0"))
        assert report.map_guess == BitString.from_str("01")
        assert report.map_posterior == block[1] / block.sum()


class TestToeplitzHash:
    def test_empty_output(self):
        out = toeplitz_hash(BitString.from_str("101"), BitString.from_str("01"), 0)
        assert out == BitString.from_str("")

    def test_zero_key(self):
        out = toeplitz_hash(BitString(0, 5), BitString.from_str("11011011"), 4)
        assert out == BitString(0, 4)

    def test_reference_case_against_matrix_oracle(self):
        k = BitString.from_str("101")
        seed = BitString.from_str("0110")
        assert toeplitz_hash(k, seed, 2) == hash_oracle(k, seed, 2)
        assert str(toeplitz_hash(k, seed, 2)) == "11"

    @staticmethod
    def check_random_cases(rng_seed, cases, key_lengths):
        rng = np.random.default_rng(rng_seed)
        for _ in range(cases):
            lk = int(rng.integers(*key_lengths))
            out_len = int(rng.integers(0, lk + 1))
            k = bitstring(rng.integers(0, 2, lk))
            seed = bitstring(rng.integers(0, 2, lk + out_len - 1))
            assert toeplitz_hash(k, seed, out_len) == hash_oracle(k, seed, out_len)

    def test_random_cases_against_matrix_oracle(self):
        self.check_random_cases(33, 200, (1, 12))

    def test_keys_past_one_machine_word_against_matrix_oracle(self):
        self.check_random_cases(34, 100, (60, 201))

    def test_identity_seed_at_ten_thousand_bits(self):
        rng = np.random.default_rng(35)
        seed = identity_seed(10**4)
        for _ in range(3):
            k = bitstring(rng.integers(0, 2, 10**4))
            assert toeplitz_hash(k, seed, 10**4) == k

    def test_linearity_at_a_thousand_bits(self):
        rng = np.random.default_rng(36)
        for out_len in (1, 500, 1000):
            a, b = (bitstring(rng.integers(0, 2, 1000)) for _ in range(2))
            seed = bitstring(rng.integers(0, 2, 1000 + out_len - 1))
            assert toeplitz_hash(a ^ b, seed, out_len) == \
                toeplitz_hash(a, seed, out_len) ^ toeplitz_hash(b, seed, out_len)

    def test_seed_length_validated(self):
        with pytest.raises(ValueError, match="seed"):
            toeplitz_hash(BitString.from_str("101"), BitString.from_str("011"), 2)

    @given(bit_list(6), bit_list(6), bit_list(9))
    def test_linearity(self, a_bits, b_bits, seed_bits):
        a, b = bitstring(a_bits), bitstring(b_bits)
        seed = bitstring(seed_bits)
        left = toeplitz_hash(a ^ b, seed, 4)
        right = toeplitz_hash(a, seed, 4) ^ toeplitz_hash(b, seed, 4)
        assert left == right

    def test_linearity_thousand_random_triples(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            lk = int(rng.integers(1, 10))
            out_len = int(rng.integers(1, lk + 1))
            a = bitstring(rng.integers(0, 2, lk))
            b = bitstring(rng.integers(0, 2, lk))
            seed = bitstring(rng.integers(0, 2, lk + out_len - 1))
            assert toeplitz_hash(a ^ b, seed, out_len) == \
                toeplitz_hash(a, seed, out_len) ^ toeplitz_hash(b, seed, out_len)

    def test_identity_seed(self):
        seed = identity_seed(4)
        for v in range(16):
            k = BitString.from_index(v, 4)
            assert toeplitz_hash(k, seed, 4) == k


class TestPaEffect:
    def test_identity_hash_is_neutral(self):
        rng = np.random.default_rng(3)
        joint = random_joint(rng, 4, 2)
        report = pa_effect_on_guessing(joint, 4, [identity_seed(4)])
        assert report.after[0] == report.before
        assert report.after_avg == report.before

    def test_uniform_independent_key(self):
        joint = product_joint(Distribution.uniform(4), Distribution.uniform(2))
        seed = BitString.from_str("10110")
        report = pa_effect_on_guessing(joint, 2, [seed])
        assert report.before == pytest.approx(2.0 ** -4, abs=1e-15)
        assert report.after[0] >= 2.0 ** -2 - 1e-15

    def test_exhaustive_seeds_never_below_before(self):
        rng = np.random.default_rng(77)
        seeds = [BitString.from_index(v, 5) for v in range(32)]
        for _ in range(20):
            joint = random_joint(rng, 4, 2)
            report = pa_effect_on_guessing(joint, 2, seeds)
            assert all(a >= report.before for a in report.after)
            assert report.after_avg >= report.before

    @pytest.mark.parametrize("k_bits, out_len", [
        (1, 1), (2, 1), (2, 2), (3, 2), (4, 1), (4, 4), (5, 3), (6, 2),
        (6, 3)])
    def test_matches_per_key_hash_merge(self, k_bits, out_len):
        rng = np.random.default_rng(100 + 10 * k_bits + out_len)
        joint = random_joint(rng, k_bits, int(rng.integers(0, 3)))
        seed_bits = k_bits + out_len - 1
        seeds = [BitString.from_index(v, seed_bits)
                 for v in range(1 << seed_bits)]
        report = pa_effect_on_guessing(joint, out_len, seeds)
        for seed, after in zip(seeds, report.after):
            merged = np.zeros((1 << out_len, joint.masses.shape[1]))
            for kv in range(1 << k_bits):
                key = BitString.from_index(kv, k_bits)
                merged[toeplitz_hash(key, seed, out_len).to_index()] += \
                    joint.masses[kv]
            assert after == float(merged.max(axis=0).sum())
        assert report.after_avg == float(np.mean(report.after))

    def test_validation(self):
        joint = product_joint(Distribution.uniform(4), Distribution.uniform(1))
        with pytest.raises(ValueError):
            pa_effect_on_guessing(joint, 0, [BitString.from_str("0011")])
        with pytest.raises(ValueError):
            pa_effect_on_guessing(joint, 2, [])
        big = product_joint(Distribution.uniform(11), Distribution.uniform(1))
        with pytest.raises(ValueError, match="capped"):
            pa_effect_on_guessing(big, 2, [BitString(0, 12)])


class TestAttackReportInvariants:
    def test_uniform_plaintext_decouples_ciphertext_from_key(self):
        # the joint (K, C) built from a uniform plaintext prior factorizes,
        # so observing C leaves the key guess at the prior optimum; this is
        # the model under which avg_success equals max_k p_k(k)
        rng = np.random.default_rng(55)
        p_k = random_distribution(rng, 3)
        p_x = Distribution.uniform(3)
        n = 8
        joint = np.zeros((n, n))
        for k in range(n):
            for x in range(n):
                joint[k, k ^ x] += p_k.prob(k) * p_x.prob(x)
        j = JointDistribution(3, 3, joint)
        assert conditional_guessing_probability(j) == pytest.approx(
            guessing_probability(p_k), abs=1e-12)
        report = ciphertext_only_attack(BitString(0, 3), p_x, p_k)
        assert report.avg_success == pytest.approx(
            conditional_guessing_probability(j), abs=1e-12)


class TestToeplitzEmptyKey:
    def test_empty_key_message(self):
        with pytest.raises(ValueError, match="key must be nonempty"):
            toeplitz_hash(BitString.from_str(""), BitString.from_str(""), 0)
