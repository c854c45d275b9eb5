"""Fixed-length bitstrings with MSB-first integer indexing."""

from __future__ import annotations

from dataclasses import dataclass

MAX_MATERIALIZED_LEN = 2**20


def _integral(value, name: str, lo: int = 0, hi: int | None = None) -> int:
    """The one integer check: ``value`` as an int in [lo, hi], or ValueError.

    Integral values of any numeric type pass (``8.0``, numpy integers);
    NaN, infinities, fractions and non-numbers fail; hi None means no cap.
    """
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if n < lo or (hi is not None and n > hi):
        upper = "" if hi is None else f" and <= {hi}"
        raise ValueError(f"{name} must be >= {lo}{upper}, got {n}")
    return n


@dataclass(frozen=True)
class BitString:
    """Immutable sequence of 0/1 values.

    The integer index of a bitstring reads the bits most-significant
    first, so BitString.from_str("110").to_index() == 6.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) > MAX_MATERIALIZED_LEN:
            raise ValueError(
                f"bitstring length {len(self.bits)} exceeds materialized cap "
                f"{MAX_MATERIALIZED_LEN}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_str(cls, text: str) -> BitString:
        if not all(ch in "01" for ch in text):
            raise ValueError(f"not a bitstring literal: {text!r}")
        return cls(tuple(int(ch) for ch in text))

    @classmethod
    def from_index(cls, value: int, length: int) -> BitString:
        length = _integral(length, "length", 0, MAX_MATERIALIZED_LEN)
        value = _integral(value, "index", 0, (1 << length) - 1)
        return cls(tuple((value >> (length - 1 - i)) & 1 for i in range(length)))

    @classmethod
    def zeros(cls, length: int) -> BitString:
        return cls((0,) * _integral(length, "length", 0, MAX_MATERIALIZED_LEN))

    @classmethod
    def ones(cls, length: int) -> BitString:
        return cls((1,) * _integral(length, "length", 0, MAX_MATERIALIZED_LEN))

    def to_index(self) -> int:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BitString(self.bits[i])
        return self.bits[i]

    def __xor__(self, other: BitString) -> BitString:
        if len(self) != len(other):
            raise ValueError(
                f"length mismatch: {len(self)} vs {len(other)}")
        return BitString(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __iter__(self):
        return iter(self.bits)
