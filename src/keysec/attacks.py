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

from .bits import MAX_MATERIALIZED_LEN, BitString, _integral
from .probdist import (_BLOCK, Distribution, JointDistribution,
                       _blockwise_sum, conditional_guessing_probability,
                       guessing_probability)

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


def ciphertext_only_attack(c: BitString, p_x: Distribution,
                           p_k: Distribution) -> AttackReport:
    """Key estimation from an intercepted one-time-pad ciphertext.

    The posterior for the observed ciphertext is Bayes on the plaintext
    model: P(k | c) proportional to p_k(k) p_x(c xor k).  The reported
    ``avg_success`` is the attacker's best key-guess probability from
    side information carrying no key correlation, which collapses by
    total probability to max_k p_k(k), ``guessing_probability(p_k)``
    (which a dense key law computes once and keeps): the ciphertext
    observation leaves a uniformly keyed pad at exactly 2^(-l).

    The unnormalized row p_k(k) p_x(c xor k) is never built whole: one
    cache block at a time, each key block meets one plaintext block, and
    their product is reduced to its total and argmax.  A stride-0
    plaintext law (the uniform view) holds one float, so its blocks are
    that float and are never gathered.
    """
    l = p_k.outcome_bits
    if p_x.outcome_bits != l or len(c) != l:
        raise ValueError(
            f"lengths differ: key {l}, plaintext {p_x.outcome_bits}, "
            f"ciphertext {len(c)}")
    key_masses, plain_masses = p_k.masses, p_x.masses
    c_idx = c.to_index()
    n = 1 << l
    m = min(n, _BLOCK)
    # keys lo .. lo + m - 1 meet the plaintext block at lo xor the high
    # bits of c, permuted within it by the low bits of c
    c_high = c_idx & -_BLOCK
    cols = np.arange(m) ^ (c_idx & (m - 1))
    buf = np.empty(m)
    map_mass, map_idx = -1.0, 0
    # np.take would copy each non-contiguous block of a stride-0 law
    flat = plain_masses.strides == (0,)

    def block_sum(lo):
        nonlocal map_mass, map_idx
        if flat:  # x * y == y * x, so the products are the gathered ones
            np.multiply(key_masses[lo:lo + m], plain_masses[0], out=buf)
        else:
            start = lo ^ c_high
            block = plain_masses[start:start + m]
            # the gather reads the block in k xor c order, which the
            # hardware prefetcher cannot follow; one pass in address
            # order first brings the block into cache for it
            block.max()
            # every index is in range; with the default mode="raise",
            # np.take copies through a hidden buffer
            np.take(block, cols, out=buf, mode="clip")
            np.multiply(buf, key_masses[lo:lo + m], out=buf)
        j = int(buf.argmax())
        if buf[j] > map_mass:  # strictly, so ties keep the lowest index
            map_mass, map_idx = buf[j], lo + j
        return buf.sum()

    p_c = float(_blockwise_sum(n, block_sum))
    if p_c == 0.0:
        raise ValueError("ciphertext has zero probability under the model")
    return AttackReport(
        map_guess=BitString.from_index(map_idx, l),
        map_posterior=float(map_mass / p_c),
        avg_success=guessing_probability(p_k),
    )


def kpa_next_bits(p_k: Distribution, known_prefix: BitString) -> AttackReport:
    """Predict the remaining key bits after m known leading bits.

    Conditions the key law on its first m bits equaling the prefix and
    returns the MAP remainder with its exact conditional probability.
    """
    l = p_k.outcome_bits
    m = _integral(len(known_prefix), "prefix length", 1, l - 1)
    rest_bits = l - m
    start = known_prefix.to_index() << rest_bits
    block = p_k.masses[start:start + (1 << rest_bits)]
    p_prefix = float(block.sum())
    if p_prefix == 0.0:
        raise ValueError("known prefix has zero probability under the key law")
    map_idx = int(np.argmax(block))
    map_post = float(block[map_idx] / p_prefix)
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
    out_len = _integral(out_len, "out_len", 0, lk)
    if len(seed) != lk + out_len - 1:
        raise ValueError(
            f"seed needs {lk + out_len - 1} bits, got {len(seed)}")
    # out[i] = parity over j of k[j] seed[i + lk - 1 - j].  Put k[j] at
    # bit j of the key; then the output bit at place p = out_len - 1 - i
    # is the parity of the key AND the seed's index shifted right by p.
    key = int(str(k)[::-1], 2)
    window = seed.to_index()
    return BitString(sum(((window >> p) & key).bit_count() % 2 << p
                         for p in range(out_len)), out_len)


def identity_seed(k_bits: int) -> BitString:
    """Seed making the Toeplitz matrix the identity (out_len = k_bits)."""
    k_bits = _integral(k_bits, "k_bits", 1, (MAX_MATERIALIZED_LEN + 1) // 2)
    return BitString(1 << (k_bits - 1), 2 * k_bits - 1)


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
    out_len = _integral(out_len, "out_len", 1, k_bits)
    if not seeds:
        raise ValueError("need at least one hash seed")
    joint = joint_ke.masses
    before = conditional_guessing_probability(joint_ke)
    after = []
    for seed in seeds:
        # linear hash: a key's image is the xor of its unit keys' images,
        # so doubling from the least significant bit fills the table
        hashed_index = np.zeros(1, dtype=np.int64)
        for j in range(k_bits):
            image = toeplitz_hash(BitString.from_index(1 << j, k_bits),
                                  seed, out_len).to_index()
            hashed_index = np.concatenate((hashed_index, hashed_index ^ image))
        merged = np.zeros((1 << out_len, joint.shape[1]))
        np.add.at(merged, hashed_index, joint)
        after.append(float(merged.max(axis=0).sum()))
    return PaReport(before=before, after=tuple(after),
                    after_avg=float(np.mean(after)))
