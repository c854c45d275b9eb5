"""BitString: the constructor's checks, literals, indexing and its
(value, length) representation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import traced_peak
from keysec import BitString
from keysec.bits import MAX_MATERIALIZED_LEN


def test_length_capped():
    # checked before the value's upper end 2^length - 1 is built, and
    # before a literal is read
    needle = f"length must be >= 0 and <= {MAX_MATERIALIZED_LEN}"
    with pytest.raises(ValueError, match=needle):
        BitString(0, 2**64)
    with pytest.raises(ValueError, match=needle):
        BitString.from_str("2" * (MAX_MATERIALIZED_LEN + 1))


# (value, length) pairs whose value needs a bit beyond the length
@pytest.mark.parametrize("bits", [(1, 0), (8, 3), (1 << 64, 64)])
def test_bits_are_zero_or_one(bits):
    with pytest.raises(ValueError, match="index must be"):
        BitString(*bits)


def test_negative_index_message():
    # the lower end alone, as for an outcome index
    with pytest.raises(ValueError, match=r"^index must be >= 0, got -1$"):
        BitString(-1, 3)


@pytest.mark.parametrize("text", ["012", "0b1", "+1", "1 0", "1_0", " 1"])
def test_from_str_takes_only_literals(text):
    with pytest.raises(ValueError, match="not a bitstring literal"):
        BitString.from_str(text)


def test_integer_and_slice_indexing():
    b = BitString.from_str("1101")
    assert [b[i] for i in range(4)] == [1, 1, 0, 1]
    assert b[-1] == 1
    assert b[1:3] == BitString.from_str("10")


def test_iteration_formats_once(monkeypatch):
    # through __getitem__ each bit would format the whole string again
    calls = []
    to_str = BitString.__str__
    monkeypatch.setattr(BitString, "__str__",
                        lambda b: calls.append(1) or to_str(b))
    b = BitString.ones(1 << 10)
    assert list(b) == [1] * (1 << 10)
    assert len(calls) == 1


def test_stores_value_and_length():
    b = BitString.from_str("0110")
    assert (b.value, b.length) == (6, 4)
    assert repr(b) == "BitString(value=6, length=4)"
    # integral floats and numpy integers are stored as int
    c = BitString(np.int64(6), 4.0)
    assert c == b and type(c.value) is type(c.length) is int
    assert str(BitString.from_str("")) == ""


@st.composite
def bitstring_pairs(draw):
    n = draw(st.integers(0, 200))
    a, b = (draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
    return BitString(a, n), BitString(b, n)


@given(bitstring_pairs(), st.data())
def test_representations_agree(pair, data):
    a, b = pair
    text = str(b)
    assert len(text) == len(b)
    assert BitString.from_str(text) == b
    assert BitString.from_index(b.to_index(), len(b)) == b
    assert (a ^ b).to_index() == a.to_index() ^ b.to_index()
    assert b.bits == tuple(map(int, text))
    assert list(b) == list(b.bits)
    if text:
        i = data.draw(st.integers(-len(text), len(text) - 1))
        assert b[i] == int(text[i])
        assert b[-1] == int(text[-1])
    lo, hi = sorted(data.draw(st.integers(0, len(text))) for _ in range(2))
    assert str(b[lo:hi]) == text[lo:hi]


def test_literal_at_the_cap_allocates_one_integer():
    # one 2^20-bit index is 128 KiB
    text = "10" * (MAX_MATERIALIZED_LEN // 2)
    b, peak = traced_peak(lambda: BitString.from_str(text))
    assert b.to_index() == int(text, 2)
    assert peak < 1 << 20
