"""Fixed-length bitstrings with MSB-first integer indexing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

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
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    if n < lo or (hi is not None and n > hi):
        upper = "" if hi is None else f" and <= {_shown(hi)}"
        raise ValueError(f"{name} must be >= {lo}{upper}, got {_shown(n)}")
    return n


def _within(value, name: str, lo, hi, ends: str = "[]") -> None:
    """The one range check: value between lo and hi (NaN fails), or ValueError.

    ``ends`` marks each end closed, ``[`` and ``]``, or open, ``(`` and
    ``)``.  A complex value fails too: numpy compares its complex scalars,
    and a later ``float()`` would drop the imaginary part with only a
    warning.  The comparison is exact; then, where an end is infinite, a
    finite value that rounds to no finite float (``-10**5000`` in
    [-inf, 0]) fails as outside the float range.  That test rounds with
    ``float()``, which is exact for every numpy float up to 64 bits: a
    comparison with ``sys.float_info.max`` would cast it to a narrower
    numpy float and overflow there.
    """
    if not (isinstance(value, Real)
            and (lo < value if ends[0] == "(" else lo <= value)
            and (value < hi if ends[1] == ")" else value <= hi)):
        raise ValueError(f"{name} must be in {ends[0]}{lo}, {hi}{ends[1]}, "
                         f"got {_shown(value, str)}")
    if lo == -math.inf or hi == math.inf:  # else a float holds all inside
        try:
            rounded = float(value)
        except OverflowError:  # an int or a Fraction past the float range
            rounded = math.inf
        if math.isinf(rounded) and rounded != value:
            raise ValueError(f"{name} must be in the float range, "
                             f"got {_shown(value, str)}")


def _shown(value, form=repr) -> str:
    # repr() and str() refuse integers past sys.get_int_max_str_digits()
    # digits, also inside another value such as a Fraction; str() prints
    # numpy scalars plainly
    try:
        return form(value)
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__} too long to print"
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {value.bit_length()} bits"


def _index(value, name: str, bits: int) -> int:
    """The one index check: ``value`` as an int in [0, 2^bits)."""
    n = _integral(value, name)
    if n.bit_length() > bits:  # only now is the cap built: no larger than n
        _integral(n, name, 0, (1 << bits) - 1)
    return n


@dataclass(frozen=True)
class BitString:
    """Immutable fixed-length bitstring, stored as its integer index.

    The index reads the bits most-significant first, so
    BitString.from_str("110") == BitString(6, 3).
    """

    value: int
    length: int

    def __post_init__(self):
        length = _integral(self.length, "length", 0, MAX_MATERIALIZED_LEN)
        value = _index(self.value, "index", length)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "value", value)

    @classmethod
    def from_str(cls, text: str) -> BitString:
        length = _integral(len(text), "length", 0, MAX_MATERIALIZED_LEN)
        if text.strip("01"):
            raise ValueError(f"not a bitstring literal: {text!r}")
        return cls(int(text or "0", 2), length)

    @classmethod
    def from_index(cls, value: int, length: int) -> BitString:
        return cls(value, length)

    @classmethod
    def zeros(cls, length: int) -> BitString:
        return cls(0, length)

    @classmethod
    def ones(cls, length: int) -> BitString:
        length = _integral(length, "length", 0, MAX_MATERIALIZED_LEN)
        return cls((1 << length) - 1, length)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(map(int, str(self)))

    def to_index(self) -> int:
        return self.value

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, i):
        text = str(self)[i]
        return BitString.from_str(text) if isinstance(i, slice) else int(text)

    def __xor__(self, other: BitString) -> BitString:
        if len(self) != len(other):
            raise ValueError(
                f"length mismatch: {len(self)} vs {len(other)}")
        return BitString(self.value ^ other.value, self.length)

    def __str__(self) -> str:
        return format(self.value | 1 << self.length, "b")[1:]
