"""Every size, length, count and index argument goes through one check.

Integral values of any numeric type are accepted; fractions, NaN,
strings and values below the argument's lower end raise ValueError
naming the argument.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from keysec import (BernoulliSource, BitString, ConditionalChannel,
                    DensityMatrix, Distribution, FiniteKeyParams,
                    JointDistribution, LogProb, Povm, SampleSet,
                    block_distribution, contradiction_report, identity_seed,
                    independent_coupling_failure, kpa_next_bits,
                    leakage_profile,
                    markov_individual_bound, model_distance_to_uniform,
                    pa_effect_on_guessing, required_epsilon, sample_blocks,
                    statistical_distance, toeplitz_hash, yuen_upper_bound)
from keysec.bits import MAX_MATERIALIZED_LEN, _integral
from keysec.cli import main
from keysec.rngtest import splitmix64

MODEL = BernoulliSource(0.1)
KEY2 = BitString.from_str("10")
SEED3 = BitString.from_str("101")
JOINT_2_1 = np.full((4, 2), 0.125)

# (id, call taking the argument, an integral float it accepts, message needle)
ENTRY_POINTS = [
    ("Distribution.outcome_bits",
     lambda v: Distribution(v, [0.5, 0.5]), 1.0, "outcome_bits"),
    ("Distribution.spike.outcome_bits",
     lambda v: Distribution.spike(v, 0.1, 0), 2.0, "outcome_bits"),
    ("Distribution.spike.outcome",
     lambda v: Distribution.spike(2, 0.1, v), 2.0, "outcome index"),
    ("Distribution.prob.outcome",
     lambda v: Distribution.uniform(2).prob(v), 2.0, "outcome index"),
    ("Distribution.uniform.outcome_bits",
     Distribution.uniform, 2.0, "outcome_bits"),
    ("JointDistribution.x_bits",
     lambda v: JointDistribution(v, 1, np.full((2, 2), 0.25)), 1.0, "x_bits"),
    ("JointDistribution.y_bits",
     lambda v: JointDistribution(1, v, np.full((2, 2), 0.25)), 1.0, "y_bits"),
    ("ConditionalChannel.in_bits",
     lambda v: ConditionalChannel(v, 1, np.full((2, 2), 0.5)), 1.0, "in_bits"),
    ("ConditionalChannel.out_bits",
     lambda v: ConditionalChannel(1, v, np.full((2, 2), 0.5)), 1.0,
     "out_bits"),
    ("BitString.from_index.length",
     lambda v: BitString.from_index(1, v), 2.0, "length"),
    ("BitString.from_index.value",
     lambda v: BitString.from_index(v, 2), 2.0, "index"),
    ("BitString.zeros.length", BitString.zeros, 2.0, "length"),
    ("BitString.length", lambda v: BitString(0, v), 2.0, "length"),
    ("BitString.value", lambda v: BitString(v, 2), 2.0, "index"),
    ("BitString.ones.length", BitString.ones, 2.0, "length"),
    ("splitmix64.seed", lambda v: splitmix64(v, 3), 2.0, "seed"),
    ("splitmix64.count", lambda v: splitmix64(1, v), 2.0, "count"),
    ("splitmix64.offset", lambda v: splitmix64(1, 3, v), 2.0, "offset"),
    ("block_distribution.block_len",
     lambda v: block_distribution(MODEL, v), 2.0, "block_len"),
    ("sample_blocks.block_len",
     lambda v: sample_blocks(MODEL, v, 10, 1), 2.0, "block_len"),
    ("sample_blocks.count",
     lambda v: sample_blocks(MODEL, 4, v, 1), 2.0, "count"),
    ("model_distance_to_uniform.block_len",
     lambda v: model_distance_to_uniform(MODEL, v), 2.0, "block_len"),
    ("SampleSet.block_len", lambda v: SampleSet(v, [1, 2]), 2.0, "block_len"),
    ("yuen_upper_bound.l",
     lambda v: yuen_upper_bound(1e-6, v), 2.0, "key length"),
    ("markov_individual_bound.l",
     lambda v: markov_individual_bound(1e-6, v), 2.0, "key length"),
    ("required_epsilon.l", required_epsilon, 2.0, "key length"),
    ("leakage_profile.l",
     lambda v: leakage_profile(v, 0.5), 2.0, "key length"),
    ("LogProb.one_minus_pow2.l", LogProb.one_minus_pow2, 2.0, "key length"),
    ("independent_coupling_failure.l",
     independent_coupling_failure, 2.0, "key length"),
    ("FiniteKeyParams.n",
     lambda v: FiniteKeyParams(n=v, q=0.01), 2.0, "block length n"),
    ("toeplitz_hash.out_len",
     lambda v: toeplitz_hash(KEY2, SEED3, v), 2.0, "out_len"),
    ("pa_effect_on_guessing.out_len",
     lambda v: pa_effect_on_guessing(JointDistribution(2, 1, JOINT_2_1), v,
                                     [SEED3]), 2.0, "out_len"),
    ("identity_seed.k_bits", identity_seed, 2.0, "k_bits"),
    ("DensityMatrix.maximally_mixed.dim",
     DensityMatrix.maximally_mixed, 2.0, "dim"),
    ("Povm.computational_basis.dim", Povm.computational_basis, 2.0, "dim"),
]

REJECTED = [2.5, math.nan, "2", -1]
# both sides of the two 2^a x 2^b matrix constructors
MATRIX_SIDES = [e for e in ENTRY_POINTS if e[0].startswith(
    ("JointDistribution.", "ConditionalChannel."))]


@pytest.mark.parametrize("call, accepted, needle",
                         [e[1:] for e in ENTRY_POINTS],
                         ids=[e[0] for e in ENTRY_POINTS])
class TestEveryEntryPoint:
    def test_integral_float_accepted(self, call, accepted, needle):
        call(accepted)

    @pytest.mark.parametrize("bad", REJECTED, ids=repr)
    def test_rejected(self, call, accepted, needle, bad):
        with pytest.raises(ValueError, match=needle):
            call(bad)


class TestIntegralPolicy:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.uint8(3),
                                       np.float32(3.0)])
    def test_integral_values_of_any_type(self, value):
        n = _integral(value, "x")
        assert n == 3 and type(n) is int

    @pytest.mark.parametrize("value", [math.inf, -math.inf, 3.5, "3", None,
                                       [3], 3 + 0j])
    def test_non_integers(self, value):
        with pytest.raises(ValueError, match="x must be an integer"):
            _integral(value, "x")

    def test_range_message_with_upper_end(self):
        with pytest.raises(ValueError,
                           match=r"^x must be >= 1 and <= 3, got 4$"):
            _integral(4.0, "x", 1, 3)

    def test_range_message_without_upper_end(self):
        with pytest.raises(ValueError, match=r"^x must be >= 0, got -1$"):
            _integral(-1, "x")

    @pytest.mark.parametrize("call, needle", [
        (lambda: Distribution.spike(15000, 0.1, 1 << 15000),
         "outcome index must be >= 0 and <= an integer of 15000 bits, "
         "got an integer of 15001 bits"),
        (lambda: BitString(0, 10**5000),
         f"length must be >= 0 and <= {MAX_MATERIALIZED_LEN}, "
         "got an integer of 16610 bits"),
        (lambda: _integral(2**20000, "n", 0, 10),
         "n must be >= 0 and <= 10, got an integer of 20001 bits"),
        (lambda: _integral(-2**20000, "n"),
         "n must be >= 0, got a negative integer of 20001 bits")],
        ids=["outcome index", "length", "n", "negative n"])
    def test_range_message_past_the_digit_limit(self, call, needle):
        # str() refuses integers of more than 4300 digits by default
        with pytest.raises(ValueError, match=f"^{needle}$"):
            call()

    @pytest.mark.parametrize("call, name", [
        (lambda v: _integral(v, "n"), "n"),
        (lambda v: Distribution.spike(4, 0.1, v), "outcome index")],
        ids=["n", "outcome index"])
    def test_non_integer_message_past_the_digit_limit(self, call, name):
        # repr() of this Fraction refuses its 5000-digit numerator
        with pytest.raises(ValueError, match=f"^{name} must be an integer, "
                           "got a Fraction too long to print$"):
            call(Fraction(10**5000 + 1, 2))

    def test_ends_are_inclusive(self):
        assert _integral(1, "x", 1, 3) == 1
        assert _integral(3, "x", 1, 3) == 3


class TestUpperEnds:
    @pytest.mark.parametrize("call", [
        BitString.zeros, BitString.ones, lambda v: BitString.from_index(0, v),
        pytest.param(lambda v: BitString(0, v), id="BitString"),
        pytest.param(lambda v: BitString.from_str("0" * v), id="from_str")])
    def test_bitstring_length_capped_before_allocating(self, call):
        with pytest.raises(ValueError, match="length must be >= 0 and <="):
            call(MAX_MATERIALIZED_LEN + 1)

    def test_index_beyond_length(self):
        for call in (BitString.from_index, BitString):
            with pytest.raises(ValueError,
                               match="index must be >= 0 and <= 3"):
                call(4, 2)

    @pytest.mark.parametrize("dim", [0, 17])
    def test_dim_outside_one_to_cap(self, dim):
        for call in (DensityMatrix.maximally_mixed, Povm.computational_basis):
            with pytest.raises(ValueError, match="dim must be >= 1 and <= 16"):
                call(dim)

    @pytest.mark.parametrize("prefix", ["", "1010"])
    def test_kpa_prefix_shorter_than_key(self, prefix):
        with pytest.raises(ValueError,
                           match="prefix length must be >= 1 and <= 3"):
            kpa_next_bits(Distribution.uniform(4), BitString.from_str(prefix))

    @pytest.mark.parametrize("offset", [2**64 - 2, 2**64])
    def test_splitmix64_counter_beyond_2_to_64(self, offset):
        assert len(splitmix64(1, 3, 2**64 - 3)) == 3
        with pytest.raises(ValueError,
                           match=f"offset must be >= 0 and <= {2**64 - 3}"):
            splitmix64(1, 3, offset)

    def test_splitmix64_count_beyond_2_to_64(self):
        with pytest.raises(ValueError,
                           match=f"count must be >= 0 and <= {2**64}"):
            splitmix64(1, 2**64 + 1)

    @pytest.mark.parametrize("call", [lambda v: Distribution.spike(4, 0.1, v),
                                      lambda v: Distribution.uniform(4).prob(v)])
    def test_outcome_index_beyond_length(self, call):
        with pytest.raises(ValueError,
                           match="outcome index must be >= 0 and <= 15, got 16"):
            call(16)

    @pytest.mark.parametrize("call", [lambda v: Distribution.spike(v, 0.5, 0),
                                      Distribution.uniform])
    def test_spike_length_capped_at_2_to_53(self, call):
        # above 2^53 bits 2^-l would raise OverflowError in every query
        with pytest.raises(ValueError, match=(
                f"outcome_bits must be >= 0 and <= {2**53}, got {2**53 + 1}")):
            call(2**53 + 1)

    def test_spike_at_2_to_53_answers(self):
        # closed forms only: n_outcomes or support_size would build 2^l
        l = 2**53
        spike = Distribution.spike(l, 0.5, 7)
        assert statistical_distance(spike, Distribution.uniform(l)) == 0.5
        report = contradiction_report(spike)
        assert (report.delta, report.maximal_mismatch,
                report.independent_failure) == (0.5, 0.5, 1.0)

    @pytest.mark.parametrize("call, needle",
                             [(e[1], e[3]) for e in MATRIX_SIDES],
                             ids=[e[0] for e in MATRIX_SIDES])
    @pytest.mark.parametrize("bits", [21, 20000])
    def test_matrix_sides_capped_at_20_bits(self, call, needle, bits):
        # refused before 1 << bits is built or printed in a shape message
        with pytest.raises(ValueError, match=(
                f"^{needle} must be >= 0 and <= 20, got {bits}$")):
            call(bits)

    def test_out_len_beyond_key(self):
        with pytest.raises(ValueError, match="out_len must be >= 0 and <= 2"):
            toeplitz_hash(KEY2, BitString.from_str("1011"), 3)


def test_block_length_stored_as_int():
    p = FiniteKeyParams(n=1e4, q=0.01)
    assert p.n == 10 ** 4 and type(p.n) is int


@pytest.mark.parametrize("key_len", ["0", "-3"])
def test_cli_key_len_below_one(capsys, key_len):
    code = main(["bounds", "--eps-bar", "1e-6", "--key-len", key_len])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"key length must be >= 1 and <= {2 ** 53}, got {key_len}" \
        in captured.err
