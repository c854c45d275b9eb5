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

from dataclasses import dataclass

import numpy as np

from .bits import BitString
from .bounds import LogProb
from .coupling import independent_coupling_failure
from .probdist import (ConditionalChannel, Distribution, _total_variation,
                       statistical_distance)

BLOCK_LEN_CAP = 16

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Outputs offset+1 .. offset+count of the SplitMix64 stream for seed."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniform_doubles(seed: int, count: int) -> np.ndarray:
    # top 53 bits -> [0, 1)
    return (splitmix64(seed, count) >> np.uint64(11)).astype(float) * 2.0 ** -53


@dataclass(frozen=True)
class BernoulliSource:
    """IID bits with P(1) = 0.5 + bias."""

    bias: float

    def __post_init__(self):
        if not -0.5 <= self.bias <= 0.5:
            raise ValueError(f"bias must be in [-0.5, 0.5], got {self.bias}")


@dataclass(frozen=True)
class MarkovSource:
    """One-bit chain: initial law plus a 1-bit transition channel."""

    transition: ConditionalChannel
    initial: Distribution

    def __post_init__(self):
        if self.transition.in_bits != 1 or self.transition.out_bits != 1:
            raise ValueError("transition must be a 1-bit channel")
        if self.initial.outcome_bits != 1:
            raise ValueError("initial law must be over 1 bit")


SourceModel = BernoulliSource | MarkovSource


def block_distribution(model: SourceModel, block_len: int) -> Distribution:
    """Exact law of one block under the model."""
    if not 1 <= block_len <= BLOCK_LEN_CAP:
        raise ValueError(f"block_len must be in [1, {BLOCK_LEN_CAP}]")
    if isinstance(model, BernoulliSource):
        # the Markov chain whose transition rows both equal the initial law
        p1 = 0.5 + model.bias
        masses = np.array([1.0 - p1, p1])
        trans = np.array([masses, masses])
    else:
        masses = model.initial.masses
        trans = model.transition.matrix
    for _ in range(block_len - 1):
        # index convention is MSB first, so the last emitted bit is idx & 1
        masses = (masses[:, None] * trans[np.arange(len(masses)) & 1]).ravel()
    return Distribution(block_len, masses)


@dataclass(frozen=True)
class SampleSet:
    """Sampled blocks, stored as outcome indices; seed recorded."""

    block_len: int
    values: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if not 1 <= self.block_len <= BLOCK_LEN_CAP:
            raise ValueError(f"block_len must be in [1, {BLOCK_LEN_CAP}]")
        vals = np.asarray(self.values, dtype=np.int64)
        if vals.size == 0:
            raise ValueError("sample set must be nonempty")
        if vals.min() < 0 or vals.max() >= (1 << self.block_len):
            raise ValueError("block value out of range")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_blocks(cls, blocks: list[BitString],
                    seed: int | None = None) -> SampleSet:
        if not blocks:
            raise ValueError("sample set must be nonempty")
        block_len = len(blocks[0])
        if any(len(b) != block_len for b in blocks):
            raise ValueError("all blocks must share one length")
        return cls(block_len, np.array([b.to_index() for b in blocks]), seed)

    @property
    def count(self) -> int:
        return int(self.values.size)

    @property
    def blocks(self) -> list[BitString]:
        return [BitString.from_index(int(v), self.block_len)
                for v in self.values]

    def counts(self) -> np.ndarray:
        return np.bincount(self.values, minlength=1 << self.block_len)


def sample_blocks(model: SourceModel, block_len: int, count: int,
                  seed: int) -> SampleSet:
    """Draw ``count`` independent blocks from the model's block law.

    Inverse-CDF over the exact block distribution, one SplitMix64 output
    per block, so the result is a pure function of (model, block_len,
    count, seed).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    dist = block_distribution(model, block_len)
    cdf = np.cumsum(dist.masses)
    u = _uniform_doubles(seed, count)
    values = np.searchsorted(cdf, u, side="right")
    np.clip(values, 0, (1 << block_len) - 1, out=values)
    return SampleSet(block_len=block_len, values=values, seed=seed)


def model_distance_to_uniform(model: SourceModel, block_len: int) -> float:
    """Exact distance of the model's block law from uniform.

    The one-bit iid case is the closed form |bias|, kept exact rather
    than recovered through lossy 0.5 + bias float round trips.
    """
    if isinstance(model, BernoulliSource) and block_len == 1:
        return abs(model.bias)
    return statistical_distance(block_distribution(model, block_len),
                                Distribution.uniform(block_len))


def empirical_distance(s: SampleSet) -> float:
    """Distance of the observed block frequencies from exact uniform."""
    return _total_variation(s.counts() / s.count, 2.0 ** (-s.block_len))


@dataclass(frozen=True)
class UniformityReport:
    empirical_delta: float
    exactly_uniform: bool
    independent_failure: LogProb


def uniformity_failure_report(s: SampleSet) -> UniformityReport:
    """Empirical distance next to the exact-uniformity verdict.

    ``exactly_uniform`` demands every block value appear exactly
    count / 2^block_len times, which already requires divisibility and
    in practice never happens.  ``independent_failure`` is 1 - 2^(-l)
    from the coupling module: it depends only on the block length, not
    on the sample or the model, however small ``empirical_delta`` gets.
    """
    n_outcomes = 1 << s.block_len
    exactly_uniform = False
    if s.count % n_outcomes == 0:
        exactly_uniform = bool(np.all(s.counts() == s.count // n_outcomes))
    return UniformityReport(
        empirical_delta=empirical_distance(s),
        exactly_uniform=exactly_uniform,
        independent_failure=independent_coupling_failure(s.block_len),
    )
