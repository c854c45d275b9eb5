"""Imperfect randomness sources and the uniformity-failure experiment.

A configurable bias (or a one-bit Markov chain) stands in for a physical
generator.  The module measures the exact distance of the model's block
law from uniform, the empirical distance of sampled blocks, and whether
the sample is *exactly* uniform, next to the failure probability of an
independent uniform comparison, which depends on nothing but the block
length.

Sampling is counter-based SplitMix64 (Steele et al.'s 64-bit finalizer
over a Weyl sequence): block i uses output mix(seed + (i+1) * GOLDEN),
so identical (model, block_len, count, seed) always reproduce the same
blocks and any partition of the index range samples identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import _integral, _is_integer, _within
from .bounds import LogProb
from .probdist import (_BLOCK, ConditionalChannel, Distribution, _once,
                       _total_variation, statistical_distance)

BLOCK_LEN_CAP = 16

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# (i+1) * GOLDEN for i < _BLOCK: the Weyl sequence of one chunk, seed 0
_WEYL = np.arange(1, _BLOCK + 1, dtype=np.uint64) * _GOLDEN
_WEYL.flags.writeable = False


def splitmix64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Outputs offset+1 .. offset+count of the SplitMix64 stream for seed.

    The counter runs up to 2^64, so offset + count may not exceed it.
    Output lo + i is mix(base + (i+1) * GOLDEN) with base = seed +
    (offset + lo) * GOLDEN mod 2^64, so each ``_BLOCK`` slice is the
    precomputed Weyl sequence ``_WEYL`` plus one constant.
    """
    seed = _integral(seed, "seed", 0, (1 << 64) - 1)
    count = _integral(count, "count", 0, 1 << 64)
    offset = _integral(offset, "offset", 0, (1 << 64) - count)
    z = np.empty(count, dtype=np.uint64)
    shifted = np.empty(min(count, _BLOCK), dtype=np.uint64)
    for lo in range(0, count, _BLOCK):
        zs = z[lo:lo + _BLOCK]
        t = shifted[:len(zs)]
        base = (seed + (offset + lo) * int(_GOLDEN)) % (1 << 64)
        np.add(_WEYL[:len(zs)], np.uint64(base), out=zs)
        zs ^= np.right_shift(zs, np.uint64(30), out=t)
        zs *= _MIX1
        zs ^= np.right_shift(zs, np.uint64(27), out=t)
        zs *= _MIX2
        zs ^= np.right_shift(zs, np.uint64(31), out=t)
    return z


@dataclass(frozen=True)
class BernoulliSource:
    """IID bits with P(1) = 0.5 + bias."""

    bias: float
    # block_len -> law (see block_distribution)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        _within(self.bias, "bias", -0.5, 0.5)


@dataclass(frozen=True)
class MarkovSource:
    """One-bit chain: initial law plus a 1-bit transition channel."""

    transition: ConditionalChannel
    initial: Distribution
    # block_len -> law (see block_distribution)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if self.transition.in_bits != 1 or self.transition.out_bits != 1:
            raise ValueError("transition must be a 1-bit channel")
        if self.initial.outcome_bits != 1:
            raise ValueError("initial law must be over 1 bit")


SourceModel = BernoulliSource | MarkovSource


def block_distribution(model: SourceModel, block_len: int) -> Distribution:
    """Exact law of one block under the model, built once per block_len.

    The model keeps the law (``probdist._once``), so later calls with the
    same block length share one law; each model instance keeps its own, so
    equal sources whose biases differ in numeric type never share a law.
    """
    block_len = _integral(block_len, "block_len", 1, BLOCK_LEN_CAP)
    return _once(model, block_len, lambda: _block_law(model, block_len))


def _block_law(model: SourceModel, block_len: int) -> Distribution:
    if isinstance(model, BernoulliSource):
        # the Markov chain whose transition rows both equal the initial law
        # float(): a narrow numpy bias would keep the law in its own width
        p1 = 0.5 + float(model.bias)
        masses = np.array([1.0 - p1, p1])
        trans = np.array([masses, masses])
    else:
        masses = model.initial.masses
        trans = model.transition.matrix
    for _ in range(block_len - 1):
        # index convention is MSB first, so the last emitted bit is idx & 1:
        # entry 2i + b is masses[i] * trans[i & 1, b]
        masses = (masses.reshape(-1, 2, 1) * trans).ravel()
    return Distribution(block_len, masses)


def _sampler_tables(law: Distribution) -> tuple:
    """(thresholds, words, crowded) of a block law, each read-only.

    With L the block length, w = 2^(52 - L) and guide g the index of the
    first threshold above the bucket's base b * w, the word of bucket b is
    (g * 2^(53 - L) + 2w - min(T[g], (b + 1) * w)) << 11 mod 2^64 (see
    ``sample_blocks``), and ``crowded`` marks the buckets whose 53-bit
    range holds two or more thresholds.
    """
    block_len = law.outcome_bits
    cdf = np.cumsum(law.masses)
    thresholds = np.ceil(np.minimum(cdf, 1.0) * 2.0 ** 53).astype(np.uint64)
    thresholds[-1] = 1 << 53
    shift = 52 - block_len  # 53 bits over 2^(block_len + 1) buckets
    n_buckets = 1 << (block_len + 1)
    lowest = (thresholds + np.uint64((1 << shift) - 1)) >> np.uint64(shift)
    edges = np.cumsum(np.bincount(lowest.astype(np.int64),
                                  minlength=n_buckets + 1))
    crowded = np.diff(edges) > 1
    guide = edges[:n_buckets]  # first threshold above each bucket's base
    words = np.arange(1, n_buckets + 1, dtype=np.uint64)
    words <<= np.uint64(shift)  # the next bucket's base, (b + 1) * w
    np.minimum(words, np.take(thresholds, guide), out=words)
    np.subtract(np.uint64(2 << shift), words, out=words)
    guide <<= shift + 1
    words += guide.view(np.uint64)
    words <<= np.uint64(11)
    for table in (thresholds, words, crowded):
        table.flags.writeable = False
    return thresholds, words, crowded


@dataclass(frozen=True)
class SampleSet:
    """Sampled blocks, stored as outcome indices; seed recorded."""

    block_len: int
    values: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "block_len", _integral(
            self.block_len, "block_len", 1, BLOCK_LEN_CAP))
        raw = np.asarray(self.values)
        vals = None
        if raw.dtype.kind != "c":  # numpy would cast it with only a warning
            with np.errstate(invalid="ignore"):  # NaN and inf fail below
                try:
                    vals = raw.astype(np.int64, copy=False)
                except (OverflowError, TypeError):  # 10**5000, None
                    pass
        if vals is None or (vals is not raw and not np.array_equal(vals, raw)):
            # an integer of any type past the int64 range is out of range
            raise ValueError("block value out of range"
                             if all(map(_is_integer, raw.ravel().tolist()))
                             else "block values must be integers")
        if vals.ndim != 1:
            raise ValueError(
                f"sample values must be 1-D, got shape {vals.shape}")
        if vals.size == 0:
            raise ValueError("sample set must be nonempty")
        # one pass: a negative int64 read as uint64 sets bit 63
        if int(np.bitwise_or.reduce(vals.view(np.uint64))) >> self.block_len:
            raise ValueError("block value out of range")
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return int(self.values.size)

    def counts(self) -> np.ndarray:
        return np.bincount(self.values, minlength=1 << self.block_len)


def sample_blocks(model: SourceModel, block_len: int, count: int,
                  seed: int) -> SampleSet:
    """Draw ``count`` independent blocks from the model's block law.

    Inverse-CDF over the exact block distribution, one SplitMix64 output
    per block, so the result is a pure function of (model, block_len,
    count, seed).  Block i is the first outcome j with m < T[j], where m
    is the top 53 bits of output i and T = ceil(cdf * 2^53) in integers,
    which is exactly the float test m * 2^-53 < cdf[j].  The last
    threshold is 2^53, so a CDF that rounds short of 1 misses no m.

    The lookup is a guide table (Chen & Asau 1974) folded into one
    64-bit word per bucket.  Write L = block_len, w = 2^(52 - L) and
    b = z >> (63 - L) for output z, so m lies in bucket b of the
    2^(L+1) equal buckets [b * w, (b + 1) * w) of the 53-bit range.  The
    guide g of bucket b is the number of T[j] <= b * w, the first outcome
    any m in the bucket can take; when the bucket holds at most one
    threshold its block is g + [m >= T[g]].  The last threshold is 2^53,
    above every bucket, so g < 2^L and T[g] exists.  The bucket's word is

        words[b] = (g * 2^(53 - L) + 2w - min(T[g], (b + 1) * w)) << 11

    modulo 2^64, and the block is (words[b] + z) >> (64 - L): one
    gather, one add and one shift.  It is exact: with r = m - b * w in
    [0, w) and o = min(T[g], (b + 1) * w) - b * w in [1, w] (T[g] > b * w
    by the guide's definition), words[b] / 2^11 + m is
    g * 2^(53 - L) + 2w - o + r, which reaches (g + 1) * 2^(53 - L)
    exactly when r >= o, that is m >= T[g], and never reaches
    (g + 2) * 2^(53 - L); the word's 11 low bits are zero, so z's never
    carry.  It never wraps: that sum is at least w and below 2^53 (when
    r >= o, g <= 2^L - 2, since g = 2^L - 1 has T[g] = 2^53 and so
    o = w > r), so the exact words[b] + z lies in [0, 2^64) and the
    uint64 sum, taken modulo 2^64, equals it.  A word on its own is
    negative for a bucket far above its guide's threshold; it is held
    modulo 2^64.

    Buckets holding two or more thresholds (a skewed law crowds them) are
    marked in the boolean mask ``crowded``, and every output in one is
    overwritten by binary search.  Both find the number of T[j] <= m, so
    the values do not depend on the lookup.  T, the words and ``crowded``
    are built on the first call for a (model, block_len) and kept by the
    block law (``_sampler_tables``), about 1.6 MiB at 16 bits beside the
    law's 0.5 MiB, so later calls go straight to the loop.

    Blocks are drawn one cache block (``probdist._BLOCK``) at a time
    through ``splitmix64``'s offset, an exact partition of the stream, so
    the chunk's temporaries stay in cache and beyond the 8-byte values
    memory is O(_BLOCK + 2^block_len) whatever the count.
    """
    block_len = _integral(block_len, "block_len", 1, BLOCK_LEN_CAP)
    count = _integral(count, "count", 1)
    law = block_distribution(model, block_len)
    thresholds, words, crowded = _once(law, "sampler",
                                       lambda: _sampler_tables(law))
    bucket_shift = np.uint64(63 - block_len)  # top block_len + 1 bits
    block_shift = np.uint64(64 - block_len)
    any_crowded = bool(crowded.any())
    values = np.empty(count, dtype=np.int64)
    width = min(count, _BLOCK)
    bucket = np.empty(width, dtype=np.uint64)
    hit = np.empty(width, dtype=bool)
    for start in range(0, count, _BLOCK):
        n = min(_BLOCK, count - start)
        chunk = values[start:start + n].view(np.uint64)
        z = splitmix64(seed, n, start)
        # below 2^(block_len + 1), so the int64 view is the same index
        b = np.right_shift(z, bucket_shift, out=bucket[:n]).view(np.int64)
        np.take(words, b, out=chunk, mode="clip")
        chunk += z  # mod 2^64, exact: see the docstring
        chunk >>= block_shift
        if any_crowded:
            np.take(crowded, b, out=hit[:n], mode="clip")
            idx = np.flatnonzero(hit[:n])
            chunk[idx] = np.searchsorted(thresholds, z[idx] >> np.uint64(11),
                                         side="right")
    return SampleSet(block_len=block_len, values=values, seed=seed)


def model_distance_to_uniform(model: SourceModel, block_len: int) -> float:
    """Exact distance of the model's block law from uniform.

    The one-bit iid case is the closed form |bias| as a Python float,
    kept exact rather than recovered through lossy 0.5 + bias float
    round trips.
    """
    if isinstance(model, BernoulliSource) and block_len == 1:
        return abs(float(model.bias))
    return statistical_distance(block_distribution(model, block_len),
                                Distribution.uniform(block_len))


@dataclass(frozen=True)
class UniformityReport:
    empirical_delta: float
    exactly_uniform: bool
    independent_failure: LogProb


def uniformity_failure_report(s: SampleSet) -> UniformityReport:
    """Empirical distance next to the exact-uniformity verdict.

    ``exactly_uniform`` demands every block value appear exactly
    count / 2^block_len times, which already requires divisibility and
    in practice never happens.  ``independent_failure`` is the 1 - 2^(-l)
    of an independent comparison: it depends only on the block length,
    not on the sample or the model, however small ``empirical_delta`` gets.
    """
    n_outcomes = 1 << s.block_len
    counts = s.counts()
    exactly_uniform = False
    if s.count % n_outcomes == 0:
        exactly_uniform = bool(np.all(counts == s.count // n_outcomes))
    return UniformityReport(
        empirical_delta=_total_variation(
            counts / s.count, Distribution.uniform(s.block_len).masses),
        exactly_uniform=exactly_uniform,
        independent_failure=LogProb.one_minus_pow2(s.block_len),
    )
