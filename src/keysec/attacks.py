"""One-time-pad attack engine over exact key distributions.

Covers XOR encryption, the MAP key posterior from an intercepted
ciphertext, known-plaintext conditioning on a key prefix, Toeplitz
hashing over GF(2), and the effect of hashing on an adversary's
guessing probability.  All successes are exact enumerations, never
sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitString
from .probdist import (Distribution, JointDistribution,
                       conditional_guessing_probability)

PA_KEY_BITS_CAP = 10


@dataclass(frozen=True)
class AttackReport:
    """Outcome of a key-estimation attempt.

    ``map_guess`` is the most probable key (or key remainder) under the
    attacker's posterior, ties broken toward the lowest outcome index;
    ``map_posterior`` its posterior mass; ``avg_success`` the attacker's
    expected success probability over the attack's randomness.
    """

    map_guess: BitString
    map_posterior: float
    avg_success: float


def otp_encrypt(x: BitString, k: BitString) -> BitString:
    """C = X xor K.  Self-inverse, so the same call decrypts."""
    return x ^ k


spike_distribution = Distribution.spike


def ciphertext_only_attack(c: BitString, p_x: Distribution,
                           p_k: Distribution) -> AttackReport:
    """Key estimation from an intercepted one-time-pad ciphertext.

    The posterior for the observed ciphertext is Bayes on the plaintext
    model: P(k | c) proportional to p_k(k) p_x(c xor k).  The reported
    ``avg_success`` is the attacker's best key-guess probability from
    side information carrying no key correlation, which collapses by
    total probability to max_k p_k(k): the ciphertext observation leaves
    a uniformly keyed pad at exactly 2^(-l).
    """
    l = p_k.outcome_bits
    if p_x.outcome_bits != l or len(c) != l:
        raise ValueError(
            f"lengths differ: key {l}, plaintext {p_x.outcome_bits}, "
            f"ciphertext {len(c)}")
    key_masses = p_k.masses
    plain_masses = p_x.masses
    c_idx = c.to_index()
    # p_x evaluated at c xor k for every k, via index permutation
    shuffled = plain_masses[np.bitwise_xor(np.arange(1 << l), c_idx)]
    joint_row = key_masses * shuffled
    p_c = float(joint_row.sum())
    if p_c == 0.0:
        raise ValueError("ciphertext has zero probability under the model")
    posterior = joint_row / p_c
    map_idx = int(np.argmax(posterior))
    return AttackReport(
        map_guess=BitString.from_index(map_idx, l),
        map_posterior=float(posterior[map_idx]),
        avg_success=float(key_masses.max()),
    )


def kpa_next_bits(p_k: Distribution, known_prefix: BitString) -> AttackReport:
    """Predict the remaining key bits after m known leading bits.

    Conditions the key law on its first m bits equaling the prefix and
    returns the MAP remainder with its exact conditional probability.
    """
    l = p_k.outcome_bits
    m = len(known_prefix)
    if not 0 < m < l:
        raise ValueError(f"prefix length must be in (0, {l}), got {m}")
    rest_bits = l - m
    start = known_prefix.to_index() << rest_bits
    block = p_k.masses[start:start + (1 << rest_bits)]
    p_prefix = float(block.sum())
    if p_prefix == 0.0:
        raise ValueError("known prefix has zero probability under the key law")
    conditional = block / p_prefix
    map_idx = int(np.argmax(conditional))
    map_post = float(conditional[map_idx])
    return AttackReport(
        map_guess=BitString.from_index(map_idx, rest_bits),
        map_posterior=map_post,
        avg_success=map_post,
    )


def toeplitz_hash(k: BitString, seed: BitString, out_len: int) -> BitString:
    """Toeplitz matrix-vector product over GF(2).

    The matrix is T[i][j] = seed[i + (|k| - 1) - j], so the seed needs
    |k| + out_len - 1 bits.  Linear: hash(a xor b) = hash(a) xor hash(b).
    """
    lk = len(k)
    if lk == 0:
        raise ValueError("key must be nonempty")
    if out_len < 0 or out_len > lk:
        raise ValueError(f"out_len must be in [0, {lk}], got {out_len}")
    if len(seed) != lk + out_len - 1:
        raise ValueError(
            f"seed needs {lk + out_len - 1} bits, got {len(seed)}")
    if out_len == 0:
        return BitString(())
    # out[i] = sum_j k[j] seed[i + lk - 1 - j] mod 2 is a slice of the
    # full convolution of seed with k.
    conv = np.convolve(np.array(seed.bits, dtype=np.int64),
                       np.array(k.bits, dtype=np.int64))
    return BitString(tuple(int(v) & 1 for v in conv[lk - 1:lk - 1 + out_len]))


def identity_seed(k_bits: int) -> BitString:
    """Seed making the Toeplitz matrix the identity (out_len = k_bits)."""
    bits = [0] * (2 * k_bits - 1)
    bits[k_bits - 1] = 1
    return BitString(tuple(bits))


@dataclass(frozen=True)
class PaReport:
    before: float
    after: tuple[float, ...]
    after_avg: float


def pa_effect_on_guessing(joint_ke: JointDistribution, out_len: int,
                          seeds: list[BitString]) -> PaReport:
    """Adversary guessing probability before and after key hashing.

    ``before`` is the best guess of K from the side information E;
    ``after`` (one entry per public seed) the best guess of the hashed
    key.  Hashing merges key candidates, so after >= before for every
    seed: the adversary can always hash her best full-key guess.
    """
    k_bits = joint_ke.x_bits
    if k_bits > PA_KEY_BITS_CAP:
        raise ValueError(f"key side capped at {PA_KEY_BITS_CAP} bits")
    if not 0 < out_len <= k_bits:
        raise ValueError(f"out_len must be in (0, {k_bits}], got {out_len}")
    if not seeds:
        raise ValueError("need at least one hash seed")
    joint = joint_ke.masses
    before = conditional_guessing_probability(joint_ke)
    after = []
    for seed in seeds:
        hashed_index = np.empty(1 << k_bits, dtype=np.int64)
        for kv in range(1 << k_bits):
            out = toeplitz_hash(BitString.from_index(kv, k_bits), seed, out_len)
            hashed_index[kv] = out.to_index()
        merged = np.zeros((1 << out_len, joint.shape[1]))
        np.add.at(merged, hashed_index, joint)
        after.append(float(merged.max(axis=0).sum()))
    return PaReport(before=before, after=tuple(after),
                    after_avg=float(np.mean(after)))
