import bisect
import dataclasses
import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import traced_peak
from keysec import (BernoulliSource, BitString, ConditionalChannel,
                    Distribution, MarkovSource, SampleSet, block_distribution,
                    model_distance_to_uniform, sample_blocks,
                    uniformity_failure_report)
from keysec import probdist, rngtest
from keysec.rngtest import BLOCK_LEN_CAP, splitmix64

# 64-bit finalizer over a Weyl sequence; reference outputs from the
# published scalar recurrence
SPLITMIX_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

# frozen from the first verified run (bias 1e-3, 8-bit blocks, seed 42)
GOLDEN_FIRST16 = [190, 41, 71, 88, 9, 222, 56, 205,
                  87, 158, 52, 126, 131, 133, 170, 52]
GOLDEN_DELTA_1E6 = 0.00661125
GOLDEN_SHA256_1E6 = \
    "2e2dfbd647bbf9eefa18ef6e5890d00c39e0e5c5dcd7f087f7a9a9aeb33fc366"
# 10^6 blocks at seed 42 of two laws with crowded guide buckets, frozen
# before the word lookup; 114 and 4340 of their outputs fall in one
GOLDEN_SHA256_CROWDED_1E6 = {
    "bias_0.4999_16":
        "5ad4b26aa5e3df2d25db84aba0452f80993527947d9c1999dad70555339e852e",
    "plateau_10":
        "40705baa76d92b6ab29cb63f035a2c54f8022fa39c00c71ac63abd8bc7ad642f",
}


MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    """The SplitMix64 finalizer of one 64-bit state."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def scalar_splitmix64(seed, count):
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + GOLDEN) & MASK64
        out.append(mix64(state))
    return out


class TestSplitMix64:
    def test_weyl_table_read_only(self):
        # every chunk adds its base to this shared table
        assert not rngtest._WEYL.flags.writeable

    def test_published_reference_outputs(self):
        assert [int(v) for v in splitmix64(0, 3)] == SPLITMIX_SEED0

    def test_matches_scalar_recurrence(self):
        for seed in (1, 1234567, 2**63 + 11):
            assert [int(v) for v in splitmix64(seed, 8)] == \
                scalar_splitmix64(seed, 8)

    def test_offset_partitions_the_stream(self):
        whole = splitmix64(99, 10)
        parts = np.concatenate([splitmix64(99, 4), splitmix64(99, 6, offset=4)])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("count", [
        0, 1, probdist._BLOCK, probdist._BLOCK + 1])
    @pytest.mark.parametrize("offset", [0, 2**63 + 5, "end"])
    def test_matches_counter_definition(self, count, offset):
        # output i is mix(seed + (offset + i + 1) * GOLDEN mod 2^64), across
        # the Weyl table's chunk edge and up to the end of the counter
        if offset == "end":
            offset = (1 << 64) - count
        seed = 0x0123456789ABCDEF
        expected = [mix64((seed + (offset + i + 1) * GOLDEN) & MASK64)
                    for i in range(count)]
        assert splitmix64(seed, count, offset).tolist() == expected


def float_lookup(model, block_len, outputs):
    """The float definition of a sampled block, as a pure-Python oracle.

    Block = first outcome whose CDF exceeds u = (x >> 11) * 2^-53, clipped
    to the last outcome when rounding leaves the CDF short of 1.
    """
    masses = block_distribution(model, block_len).masses.tolist()
    cdf = list(itertools.accumulate(masses))
    top = (1 << block_len) - 1
    return [min(bisect.bisect_right(cdf, (x >> 11) * 2.0 ** -53), top)
            for x in outputs]


def outputs_around(cdf):
    """Outputs whose top 53 bits sit on, just below and just above each
    integer threshold ceil(cdf * 2^53), with the low 11 bits all zeros or
    all ones."""
    tops = {int(t) + d for t in np.ceil(np.asarray(cdf) * 2.0 ** 53)
            for d in (-1, 0, 1)}
    return sorted((m << 11) | low for m in tops if 0 <= m < 1 << 53
                  for low in (0, 2047))


def scan_steps(model, block_len, outputs):
    """Thresholds each output passes beyond its guide bucket's first block.

    The first block is that of the lowest output in the same guide bucket
    (the top block_len + 1 bits), so the float oracle counts the steps
    without the table.  An output with at most one step is resolved by
    its bucket's word; more steps mean a crowded bucket, which the lookup
    finishes by binary search.
    """
    low = 63 - block_len
    starts = float_lookup(model, block_len,
                          [(x >> low) << low for x in outputs])
    blocks = float_lookup(model, block_len, outputs)
    return [b - s for b, s in zip(blocks, starts)]


# Bernoulli bias 0.1 at 8 bits: the block law's cumsum ends at 1 - 2.7e-15
SHORT_CDF_MODEL = (BernoulliSource(0.1), 8)
PLATEAU_MODEL = MarkovSource(
    transition=ConditionalChannel(1, 1, [[1.0, 0.0], [0.3, 0.7]]),
    initial=Distribution(1, [0.4, 0.6]))

# point masses on the first and the last outcome, zero-mass plateaus, and a
# law with crowded guide buckets
WORD_MODELS = [BernoulliSource(-0.5), BernoulliSource(0.5), PLATEAU_MODEL,
               BernoulliSource(0.4999)]

# random sources of either kind; a Bernoulli bias may be a Fraction, equal
# to the float it was drawn as (so equal and hashing alike)
SOURCE_MODELS = st.one_of(
    st.floats(-0.5, 0.5).map(BernoulliSource),
    st.floats(-0.5, 0.5).map(lambda b: BernoulliSource(Fraction(b))),
    st.tuples(*[st.floats(0.0, 1.0)] * 3).map(
        lambda p: MarkovSource(
            transition=ConditionalChannel(
                1, 1, [[1.0 - p[0], p[0]], [1.0 - p[1], p[1]]]),
            initial=Distribution(1, [1.0 - p[2], p[2]]))))


class TestBlockDistribution:
    def test_unbiased_is_uniform(self):
        d = block_distribution(BernoulliSource(0.0), 4)
        assert np.allclose(d.masses, 1 / 16, rtol=0, atol=1e-15)

    def test_bernoulli_matches_per_bit_product(self):
        model = BernoulliSource(0.17)
        d = block_distribution(model, 6)
        p1 = 0.5 + 0.17
        for idx in range(64):
            weight = bin(idx).count("1")
            expected = p1 ** weight * (1 - p1) ** (6 - weight)
            assert d.prob(idx) == pytest.approx(expected, rel=1e-12)

    def test_markov_matches_path_product(self):
        trans = ConditionalChannel(1, 1, [[0.9, 0.1], [0.3, 0.7]])
        init = Distribution(1, [0.6, 0.4])
        model = MarkovSource(transition=trans, initial=init)
        d = block_distribution(model, 5)
        tm = trans.matrix
        for idx in range(32):
            bits = [(idx >> (4 - i)) & 1 for i in range(5)]
            expected = init.prob(bits[0])
            for a, b in zip(bits, bits[1:]):
                expected *= tm[a, b]
            assert d.prob(idx) == pytest.approx(expected, rel=1e-12)

    def test_block_len_cap(self):
        with pytest.raises(ValueError):
            block_distribution(BernoulliSource(0.0), 17)

    @settings(max_examples=25, deadline=None)
    @given(model=SOURCE_MODELS, block_len=st.integers(1, 12))
    def test_masses_are_left_to_right_path_products(self, model, block_len):
        # bit for bit: each mass is the product along its path, taken from
        # the first bit on in Python floats, then one renormalization
        if isinstance(model, BernoulliSource):
            p1 = 0.5 + model.bias
            first = [1.0 - p1, p1]
            step = [first, first]
        else:
            first = model.initial.masses.tolist()
            step = model.transition.matrix.tolist()
        ref = []
        for idx in range(1 << block_len):
            bits = [(idx >> k) & 1 for k in reversed(range(block_len))]
            mass = first[bits[0]]
            for a, b in zip(bits, bits[1:]):
                mass *= step[a][b]
            ref.append(mass)
        assert (block_distribution(model, block_len).masses.tobytes()
                == Distribution(block_len, ref).masses.tobytes())


class TestBuiltOnce:
    """A source builds its block law and sampler tables once per length."""

    def test_law_is_kept(self):
        model = BernoulliSource(1e-4)
        assert block_distribution(model, 16) is block_distribution(model, 16.0)

    def test_model_keeps_laws_and_law_keeps_tables(self):
        # one private field per model; the tables are the law's own
        for cls in (BernoulliSource, MarkovSource):
            assert [f.name for f in dataclasses.fields(cls)
                    if f.name.startswith("_")] == ["_memo"]
        model = BernoulliSource(1e-4)
        sample_blocks(model, 6, 10, seed=1)
        assert list(model._memo) == [6]
        assert list(block_distribution(model, 6)._memo) == ["sampler"]

    def test_law_alone_keeps_its_masses(self):
        # the sampler tables (about 1.6 MiB at 16 bits) wait for the first
        # sample_blocks call, so the model keeps the law's 512 KiB and
        # under 1 KiB of objects
        model = BernoulliSource(1e-4)
        tracemalloc.start()
        try:
            block_distribution(model, 16)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= (512 << 10) + (4 << 10)

    def test_second_call_peak_is_values_plus_one_mib(self):
        # the first call builds about 1.6 MiB of tables at 16 bits (see
        # test_peak_memory_is_values_plus_constant); a later call reuses
        # them and allocates only the values and one chunk's scratch
        count = 10**6
        model = BernoulliSource(1e-4)
        sample_blocks(model, 16, 1, seed=5)
        _, peak = traced_peak(lambda: sample_blocks(model, 16, count, seed=5))
        assert peak <= 8 * count + 2**20

    @settings(max_examples=25, deadline=None)
    @given(models=st.tuples(SOURCE_MODELS, SOURCE_MODELS),
           calls=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 12),
                                    st.integers(1, 300),
                                    st.integers(0, (1 << 64) - 1)),
                          min_size=1, max_size=8))
    def test_interleaved_calls_match_fresh_models(self, models, calls):
        for which, block_len, count, seed in calls:
            model = models[which]
            fresh = dataclasses.replace(model)  # equal, with an empty memo
            drawn = sample_blocks(model, block_len, count, seed).values
            assert drawn.tolist() == sample_blocks(
                fresh, block_len, count, seed).values.tolist()
            assert (model_distance_to_uniform(model, block_len)
                    == model_distance_to_uniform(fresh, block_len))
            assert (block_distribution(model, block_len).masses.tobytes()
                    == block_distribution(fresh, block_len).masses.tobytes())

    @pytest.mark.parametrize("make", [
        lambda: BernoulliSource(0.1),
        lambda: MarkovSource(transition=PLATEAU_MODEL.transition,
                             initial=PLATEAU_MODEL.initial)],
        ids=["bernoulli", "markov"])
    def test_equality_hash_and_repr_unchanged(self, make):
        used, unused = make(), make()
        text, digest = repr(used), hash(used)
        sample_blocks(used, 8, 10, seed=1)
        model_distance_to_uniform(used, 5)
        assert repr(used) == repr(unused) == text
        assert hash(used) == hash(unused) == digest
        assert used == unused
        assert {unused: "found"}[used] == "found"


class TestSourceModels:
    @pytest.mark.parametrize("bias", [-0.6, 0.6, np.nan])
    def test_bias_range(self, bias):
        with pytest.raises(ValueError, match=r"bias must be in \[-0.5, 0.5\]"):
            BernoulliSource(bias)

    def test_markov_transition_is_one_bit(self):
        with pytest.raises(ValueError, match="transition must be a 1-bit"):
            MarkovSource(transition=ConditionalChannel(2, 2, np.eye(4)),
                         initial=Distribution.uniform(1))

    def test_markov_initial_law_is_one_bit(self):
        with pytest.raises(ValueError, match="initial law must be over 1 bit"):
            MarkovSource(transition=ConditionalChannel.binary_symmetric(0.1),
                         initial=Distribution.uniform(2))


class TestNarrowFloatBias:
    """A numpy float bias narrower than float64 builds a float64 law."""

    @pytest.mark.parametrize("bias, block_len", [
        (np.float32(0.1), 2), (np.float16(0.25), 8), (np.float32(-0.3), 16)],
        ids=repr)
    def test_law_is_that_of_the_float_bias(self, bias, block_len):
        narrow = block_distribution(BernoulliSource(bias), block_len)
        wide = block_distribution(BernoulliSource(float(bias)), block_len)
        assert narrow.masses.dtype == np.float64
        assert narrow.masses.tobytes() == wide.masses.tobytes()
        assert sample_blocks(BernoulliSource(bias), block_len, 100, 1).values \
            .tolist() == sample_blocks(BernoulliSource(float(bias)),
                                       block_len, 100, 1).values.tolist()

    def test_one_bit_law_is_not_rounded_to_float32(self):
        law = block_distribution(BernoulliSource(np.float32(0.1)), 1)
        assert law.masses[1] == 0.5 + float(np.float32(0.1)) \
            == 0.6000000014901161


class TestModelDistance:
    def test_unbiased_zero(self):
        assert model_distance_to_uniform(BernoulliSource(0.0), 8) == 0.0

    def test_one_bit_equals_bias_exactly(self):
        for bias in (1e-4, 0.25, 0.5, -0.3, 1e-9):
            assert model_distance_to_uniform(BernoulliSource(bias), 1) == \
                abs(bias)

    @pytest.mark.parametrize("bias", [np.float32(0.1), np.float16(-0.25),
                                      Fraction(1, 3)], ids=repr)
    def test_one_bit_is_a_python_float(self, bias):
        value = model_distance_to_uniform(BernoulliSource(bias), 1)
        assert type(value) is float and value == abs(float(bias))

    def test_eight_bit_small_bias_against_enumeration(self):
        # dense 256-term oracle with independently recomputed block masses
        bias = 1e-4
        p1 = 0.5 + bias
        total = 0.0
        for idx in range(256):
            weight = bin(idx).count("1")
            total += abs(p1 ** weight * (1 - p1) ** (8 - weight) - 2.0 ** -8)
        value = model_distance_to_uniform(BernoulliSource(bias), 8)
        assert value == pytest.approx(0.5 * total, rel=1e-10)
        assert value == pytest.approx(0.00021877186624865872, rel=1e-9)


class TestSampleBlocks:
    def test_deterministic_per_seed(self):
        model = BernoulliSource(0.01)
        a = sample_blocks(model, 8, 500, seed=7)
        b = sample_blocks(model, 8, 500, seed=7)
        assert np.array_equal(a.values, b.values)
        assert a.seed == 7
        c = sample_blocks(model, 8, 500, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_degenerate_all_ones(self):
        s = sample_blocks(BernoulliSource(0.5), 4, 100, seed=3)
        assert np.all(s.values == 15)
        assert all(BitString.from_index(int(v), 4) == BitString(15, 4)
                   for v in s.values[:5])

    def test_degenerate_all_zeros(self):
        s = sample_blocks(BernoulliSource(-0.5), 4, 100, seed=3)
        assert np.all(s.values == 0)

    def test_golden_fixture(self):
        s = sample_blocks(BernoulliSource(1e-3), 8, 16, seed=42)
        assert list(s.values) == GOLDEN_FIRST16

    def test_golden_fixture_large(self):
        s = sample_blocks(BernoulliSource(1e-3), 8, 10**6, seed=42)
        digest = hashlib.sha256(s.values.astype("<i8").tobytes()).hexdigest()
        assert digest == GOLDEN_SHA256_1E6
        assert uniformity_failure_report(s).empirical_delta == pytest.approx(
            GOLDEN_DELTA_1E6, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256_CROWDED_1E6))
    def test_golden_fixture_large_crowded(self, name):
        model, block_len = {"bias_0.4999_16": (BernoulliSource(0.4999), 16),
                            "plateau_10": (PLATEAU_MODEL, 10)}[name]
        s = sample_blocks(model, block_len, 10**6, seed=42)
        digest = hashlib.sha256(s.values.astype("<i8").tobytes()).hexdigest()
        assert digest == GOLDEN_SHA256_CROWDED_1E6[name]

    def test_lookup_models_cover_plateaus_and_short_cdf(self):
        plateau = block_distribution(PLATEAU_MODEL, 10).masses
        assert np.count_nonzero(plateau == 0.0) > 0
        assert np.cumsum(block_distribution(*SHORT_CDF_MODEL).masses)[-1] < 1.0

    @pytest.mark.parametrize("model, block_len", [
        (BernoulliSource(1e-4), 16), (PLATEAU_MODEL, 10), SHORT_CDF_MODEL],
        ids=["bernoulli16", "markov_plateaus", "short_cdf"])
    def test_matches_float_lookup(self, model, block_len):
        count, seed = 10**4, 2026
        s = sample_blocks(model, block_len, count, seed)
        assert s.values.tolist() == float_lookup(
            model, block_len, scalar_splitmix64(seed, count))

    def test_edge_outputs_match_float_lookup(self, monkeypatch):
        # outputs whose top 53 bits sit on, just below and just above each
        # CDF value, plus the all-ones output that a short CDF must clip
        model, block_len = SHORT_CDF_MODEL
        cdf = np.cumsum(block_distribution(model, block_len).masses)
        edges = np.floor(cdf * 2.0 ** 53).astype(np.int64)
        outputs = sorted({(int(m) << 11) | low
                          for e in edges for m in (e - 1, e, e + 1)
                          for low in (0, 2047)} | {(1 << 64) - 1})
        monkeypatch.setattr(
            rngtest, "splitmix64", lambda seed, count, offset=0:
            np.array(outputs, np.uint64)[offset:offset + count])
        s = sample_blocks(model, block_len, len(outputs), seed=0)
        expected = float_lookup(model, block_len, outputs)
        assert expected[-1] == (1 << block_len) - 1
        assert s.values.tolist() == expected

    def test_crowded_guide_bucket_matches_float_lookup(self, monkeypatch):
        # bias 0.4999 at 16 bits puts half the thresholds in the lowest
        # guide bucket, so outputs there pass more than one threshold of
        # their bucket and finish by binary search
        model, block_len = BernoulliSource(0.4999), 16
        cdf = np.cumsum(block_distribution(model, block_len).masses)
        outputs = outputs_around(cdf[cdf <= 2.0 ** -(block_len + 1)])
        assert max(scan_steps(model, block_len, outputs)) > 1
        monkeypatch.setattr(
            rngtest, "splitmix64", lambda seed, count, offset=0:
            np.array(outputs, np.uint64)[offset:offset + count])
        s = sample_blocks(model, block_len, len(outputs), seed=0)
        assert s.values.tolist() == float_lookup(model, block_len, outputs)

    def test_plateau_scan_matches_float_lookup(self, monkeypatch):
        # zero masses repeat a threshold, so an output past a run of equal
        # thresholds passes the whole run: outputs in buckets with at most
        # one threshold take the word path, those past a run in
        # one bucket fall back to binary search
        model, block_len = PLATEAU_MODEL, 10
        cdf = np.cumsum(block_distribution(model, block_len).masses)
        outputs = outputs_around(cdf)
        steps = scan_steps(model, block_len, outputs)
        assert any(k <= 1 for k in steps)
        assert max(steps) > 1
        monkeypatch.setattr(
            rngtest, "splitmix64", lambda seed, count, offset=0:
            np.array(outputs, np.uint64)[offset:offset + count])
        s = sample_blocks(model, block_len, len(outputs), seed=0)
        assert s.values.tolist() == float_lookup(model, block_len, outputs)

    @pytest.mark.parametrize("count", [
        probdist._BLOCK - 1, probdist._BLOCK, probdist._BLOCK + 1,
        2 * probdist._BLOCK + 3])
    def test_chunk_boundaries_match_float_lookup(self, count):
        model, block_len, seed = BernoulliSource(1e-4), 16, 77
        s = sample_blocks(model, block_len, count, seed)
        assert s.values.tolist() == float_lookup(
            model, block_len, scalar_splitmix64(seed, count))

    @settings(max_examples=25, deadline=None)
    @given(model=st.one_of(
               st.floats(-0.5, 0.5).map(BernoulliSource),
               st.tuples(*[st.floats(0.0, 1.0)] * 3).map(
                   lambda p: MarkovSource(
                       transition=ConditionalChannel(
                           1, 1, [[1.0 - p[0], p[0]], [1.0 - p[1], p[1]]]),
                       initial=Distribution(1, [1.0 - p[2], p[2]])))),
           block_len=st.integers(1, 12),
           count=st.integers(probdist._BLOCK - 2, probdist._BLOCK + 2),
           seed=st.integers(0, (1 << 64) - 1))
    def test_any_law_matches_float_lookup(self, model, block_len, count,
                                          seed):
        s = sample_blocks(model, block_len, count, seed)
        assert s.values.tolist() == float_lookup(
            model, block_len, scalar_splitmix64(seed, count))

    @settings(max_examples=20, deadline=None)
    @given(model=st.one_of(SOURCE_MODELS, st.sampled_from(WORD_MODELS)),
           block_len=st.integers(1, BLOCK_LEN_CAP))
    @example(model=BernoulliSource(-0.5), block_len=16)  # all mass on 0
    @example(model=BernoulliSource(0.5), block_len=16)  # all on the last
    @example(model=PLATEAU_MODEL, block_len=16)
    @example(model=BernoulliSource(0.4999), block_len=16)
    @example(model=BernoulliSource(-0.4999), block_len=1)
    def test_word_lookup_is_the_threshold_count(self, model, block_len):
        # every bucket's lowest and highest output and the outputs around
        # each threshold: outside crowded buckets one word gives the block,
        # and sample_blocks gives it everywhere
        thresholds, words, crowded = rngtest._sampler_tables(
            block_distribution(model, block_len))
        low = 63 - block_len
        bases = np.arange(1 << (block_len + 1), dtype=np.uint64) << low
        tops = (thresholds.astype(np.int64)[:, None] + [-1, 0, 1]).ravel()
        tops = tops[(tops >= 0) & (tops < 1 << 53)].astype(np.uint64) << 11
        z = np.concatenate([bases, bases + np.uint64((1 << low) - 1),
                            tops, tops | np.uint64(2047)])
        b = (z >> np.uint64(low)).astype(np.int64)
        expected = np.searchsorted(thresholds, z >> np.uint64(11),
                                   side="right")
        plain = ~crowded[b]
        blocks = (words[b] + z) >> np.uint64(64 - block_len)
        assert blocks[plain].tolist() == expected[plain].tolist()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rngtest, "splitmix64", lambda seed, count, offset=0:
                          z[offset:offset + count])
            assert sample_blocks(model, block_len, len(z), 0).values.tolist() \
                == expected.tolist()

    @settings(max_examples=20, deadline=None)
    @given(model=st.one_of(SOURCE_MODELS, st.sampled_from(WORD_MODELS)),
           block_len=st.integers(1, BLOCK_LEN_CAP))
    @example(model=BernoulliSource(-0.4999), block_len=16)
    def test_words_against_integer_definition(self, model, block_len):
        # word b is (g 2^(53-L) + 2w - min(T[g], (b+1) w)) << 11 modulo 2^64
        # with g the number of thresholds <= b w; in Python integers, that
        # word plus any output of bucket b lies in [0, 2^64), so the uint64
        # sum is exact even where the word itself is negative
        thresholds, words, _ = rngtest._sampler_tables(
            block_distribution(model, block_len))
        t = thresholds.tolist()
        w, low = 1 << (52 - block_len), 63 - block_len
        for b, word in enumerate(words.tolist()):
            g = bisect.bisect_right(t, b * w)
            exact = ((g << (53 - block_len)) + 2 * w
                     - min(t[g], (b + 1) * w)) << 11
            assert word == exact % (1 << 64)
            assert 0 <= exact + (b << low)
            assert exact + ((b + 1) << low) - 1 < 1 << 64

    def test_peak_memory_is_values_plus_constant(self):
        # values take 8 bytes a block; everything else is per chunk or per
        # outcome (about 2.7 MiB at 16 bits), so the margin does not scale
        count = 10**6
        tracemalloc.start()
        try:
            sample_blocks(BernoulliSource(1e-4), 16, count, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count + 4 * 2**20

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_blocks(BernoulliSource(0.0), 4, 0, seed=1)

    def test_frequencies_track_model(self):
        model = BernoulliSource(0.2)
        s = sample_blocks(model, 3, 200_000, seed=11)
        expected = block_distribution(model, 3).masses
        observed = s.counts() / s.count
        assert np.abs(observed - expected).max() < 5e-3


class TestEmpiricalDistance:
    def test_single_block_point_mass(self):
        s = SampleSet(1, np.array([1]))
        assert uniformity_failure_report(s).empirical_delta == 0.5

    def test_sqrt_scaling_in_count(self):
        # unbiased source: E[delta] ~ sqrt(2^L / N); a 16x count increase
        # should shrink it about 4x (50% slack, averaged over 10 seeds)
        model = BernoulliSource(0.0)
        small = np.mean([uniformity_failure_report(
            sample_blocks(model, 6, 2_000, s)).empirical_delta
            for s in range(10)])
        large = np.mean([uniformity_failure_report(
            sample_blocks(model, 6, 32_000, s)).empirical_delta
            for s in range(10)])
        ratio = small / large
        assert 2.0 <= ratio <= 6.0

    def test_converges_to_model_distance(self):
        # two sample sizes, gap to the exact model distance averaged over
        # 10 seeds must shrink as the sample grows
        model = BernoulliSource(0.05)
        target = model_distance_to_uniform(model, 4)

        def mean_gap(n):
            return np.mean([abs(uniformity_failure_report(
                sample_blocks(model, 4, n, seed)).empirical_delta - target)
                for seed in range(10)])

        small, large = mean_gap(10**3), mean_gap(10**5)
        assert large < small
        assert large < 0.01


class TestUniformityReport:
    def test_constructed_exactly_uniform_case(self):
        s = SampleSet(1, np.array([0, 1]))
        report = uniformity_failure_report(s)
        assert report.exactly_uniform
        assert report.empirical_delta == 0.0
        assert report.independent_failure.value == 0.5

    def test_indivisible_count_never_uniform(self):
        s = SampleSet(1, np.array([0, 1, 0]))
        assert not uniformity_failure_report(s).exactly_uniform

    def test_three_quantities_decoupled(self):
        # tiny bias: the empirical distance is percent scale at N=1e6, the
        # model distance is 1e-4 scale, the independent failure is fixed at
        # 1 - 2^-8 regardless of either
        model = BernoulliSource(1e-4)
        s = sample_blocks(model, 8, 10**6, seed=12)
        report = uniformity_failure_report(s)
        assert not report.exactly_uniform
        assert 1e-3 < report.empirical_delta < 3e-2
        assert report.independent_failure.value == 1 - 2.0 ** -8
        assert report.independent_failure.log2_complement == -8

    def test_counts_once(self, monkeypatch):
        s = sample_blocks(BernoulliSource(0.1), 4, 4096, 1)
        expected = (uniformity_failure_report(s).empirical_delta,
                    bool(np.all(s.counts() == 4096 // 16)))
        calls = []
        counts = SampleSet.counts
        monkeypatch.setattr(SampleSet, "counts",
                            lambda self: calls.append(1) or counts(self))
        report = uniformity_failure_report(s)
        assert len(calls) == 1
        assert (report.empirical_delta, report.exactly_uniform) == expected

    @given(st.integers(min_value=0, max_value=2**32), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_determinism_property(self, seed, block_len):
        model = BernoulliSource(0.1)
        a = sample_blocks(model, block_len, 64, seed)
        b = sample_blocks(model, block_len, 64, seed)
        assert np.array_equal(a.values, b.values)


class TestSampleSetType:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSet(1, np.array([]))

    def test_empty_named_as_such(self):
        with pytest.raises(ValueError, match="sample set must be nonempty"):
            SampleSet(1, np.array([], dtype=np.int64))

    @pytest.mark.parametrize("values", [[[0, 1], [2, 3]], 3, [[]]],
                             ids=repr)
    def test_values_must_be_1d(self, values):
        with pytest.raises(ValueError, match="sample values must be 1-D"):
            SampleSet(2, values)

    def test_value_range_checked(self):
        with pytest.raises(ValueError):
            SampleSet(2, np.array([4]))

    @settings(max_examples=100, deadline=None)
    @given(case=st.integers(1, BLOCK_LEN_CAP).flatmap(lambda l: st.tuples(
        st.just(l), st.lists(st.one_of(
            st.sampled_from([0, (1 << l) - 1, 1 << l, -1, -(1 << 63),
                             (1 << 63) - 1]),
            st.integers(-(1 << 63), (1 << 63) - 1)), min_size=1, max_size=6))))
    def test_range_check_is_min_max_test(self, case):
        # the one-pass check reads the values as uint64: a negative value
        # sets bit 63, so it fails exactly as min() < 0 would
        block_len, values = case
        vals = np.array(values, dtype=np.int64)
        if vals.min() < 0 or vals.max() >= (1 << block_len):
            with pytest.raises(ValueError, match="block value out of range"):
                SampleSet(block_len, vals)
        else:
            assert SampleSet(block_len, vals).values.tolist() == vals.tolist()

    @pytest.mark.parametrize("values", [
        np.array([2**63], dtype=np.uint64),
        np.array([0, (1 << 64) - 1], dtype=np.uint64),
        [1, 2**63], [2.0**63], [1, 2**64]], ids=repr)
    def test_uint64_past_int64_is_out_of_range(self, values):
        # read as float64, as float64, and as an object array
        with pytest.raises(ValueError, match="block value out of range"):
            SampleSet(4, values)

    @pytest.mark.parametrize("values", [[1.7, 2.2], [1, np.nan], [np.inf],
                                        ["1", "2"], [1, None]], ids=repr)
    def test_non_integral_values_rejected(self, values):
        with pytest.raises(ValueError, match="block values must be integers"):
            SampleSet(4, values)

    def test_integral_values_of_any_type_accepted(self):
        for values in ([1.0, 2.0], np.array([1, 2], np.uint64), [1, 2]):
            s = SampleSet(4, values)
            assert s.values.dtype == np.int64 and s.values.tolist() == [1, 2]


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            splitmix64(seed, 3)
        with pytest.raises(ValueError, match="seed"):
            sample_blocks(BernoulliSource(0.0), 4, 3, seed)

    def test_largest_seed_accepted(self):
        seed = (1 << 64) - 1
        assert [int(v) for v in splitmix64(seed, 5)] == \
            scalar_splitmix64(seed, 5)


class TestIntegralArguments:
    @pytest.mark.parametrize("seed", [1.9, np.nan, np.inf, "1"])
    def test_non_integral_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            splitmix64(seed, 3)

    @pytest.mark.parametrize("count", [2.5, np.nan])
    def test_non_integral_count_rejected(self, count):
        with pytest.raises(ValueError, match="count must be an integer"):
            sample_blocks(BernoulliSource(0.0), 4, count, seed=1)
        with pytest.raises(ValueError, match="count must be an integer"):
            splitmix64(1, count)

    @pytest.mark.parametrize("block_len", [2.5, np.nan, "8"])
    def test_non_integral_block_len_rejected(self, block_len):
        model = BernoulliSource(0.1)
        for call in (lambda: block_distribution(model, block_len),
                     lambda: sample_blocks(model, block_len, 10, seed=1),
                     lambda: model_distance_to_uniform(model, block_len),
                     lambda: SampleSet(block_len, [1, 2])):
            with pytest.raises(ValueError, match="block_len"):
                call()

    def test_integral_float_block_len_in_block_distribution(self):
        model = BernoulliSource(0.1)
        d = block_distribution(model, 8.0)
        assert d.outcome_bits == 8
        assert np.array_equal(d.masses, block_distribution(model, 8).masses)

    def test_integral_float_block_len_in_sample_blocks(self):
        model = BernoulliSource(0.1)
        s = sample_blocks(model, 4.0, 1000, seed=5)
        assert s.block_len == 4 and type(s.block_len) is int
        assert np.array_equal(s.values,
                              sample_blocks(model, 4, 1000, seed=5).values)

    def test_integral_float_block_len_in_sample_set(self):
        s = SampleSet(2.0, [1, 2])
        assert s.block_len == 2 and type(s.block_len) is int
        assert s.counts().tolist() == [0, 1, 1, 0]

    def test_integral_float_block_len_in_model_distance(self):
        model = BernoulliSource(0.1)
        assert model_distance_to_uniform(model, 6.0) == \
            model_distance_to_uniform(model, 6)

    def test_integral_values_of_any_type_accepted(self):
        expected = sample_blocks(BernoulliSource(0.1), 4, 1000, seed=5).values
        for count, seed in ((1e3, 5.0), (np.int64(1000), np.uint64(5))):
            s = sample_blocks(BernoulliSource(0.1), 4, count, seed)
            assert np.array_equal(s.values, expected)
