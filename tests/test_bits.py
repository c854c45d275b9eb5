"""BitString: the constructor's checks, literals and indexing."""

import pytest

from keysec import BitString
from keysec.bits import MAX_MATERIALIZED_LEN


def test_length_capped():
    with pytest.raises(ValueError, match="exceeds materialized cap"):
        BitString((0,) * (MAX_MATERIALIZED_LEN + 1))


@pytest.mark.parametrize("bits", [(0, 2), (1, -1), (0.5,)])
def test_bits_are_zero_or_one(bits):
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        BitString(bits)


@pytest.mark.parametrize("text", ["012", "0b1", "+1", "1 0"])
def test_from_str_takes_only_literals(text):
    with pytest.raises(ValueError, match="not a bitstring literal"):
        BitString.from_str(text)


def test_integer_and_slice_indexing():
    b = BitString.from_str("1101")
    assert [b[i] for i in range(4)] == [1, 1, 0, 1]
    assert b[-1] == 1
    assert b[1:3] == BitString.from_str("10")
