"""Exact finite probability distributions over bitstring outcome spaces.

Distributions are either dense (one mass per outcome, spaces up to 2^20)
or spike-shaped (a point mass of weight eps mixed with uniform background,
the uniform law being eps = 0), the latter usable at up to 2^53 bits
because every query it answers is closed form.  This is the one module
that reads a spike's layout: it also holds the one spike-pair sum,
sum_x (p(x) - q(x))^+, which is both the distance and
``coupling.maximal_mismatch`` of two spikes at every length.  All
operations are pure; values are immutable after construction.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from .bits import BitString, _index, _integral, _within
from .bounds import MAX_EXACT_LEN

DENSE_BITS_CAP = 20
SUM_TOLERANCE = 1e-9
# elements per cache block, the unit that the 2^20-outcome kernels and the
# sampler work in: 128 KiB of float64, so a block's temporaries stay in L2
_BLOCK = 1 << 14


def _outcome_index(outcome, outcome_bits: int) -> int:
    if isinstance(outcome, BitString):
        if len(outcome) != outcome_bits:
            raise ValueError(
                f"outcome has {len(outcome)} bits, expected {outcome_bits}")
        return outcome.to_index()
    return _index(outcome, "outcome index", outcome_bits)


def _numbers(values, what: str, dtype=float) -> np.ndarray:
    # a new array of values as dtype, float or complex; text is refused,
    # which numpy would parse, and complex values are refused for floats,
    # since numpy would drop their imaginary part
    arr = np.array(values)
    kind = arr.dtype.kind
    if kind not in "USc" or (kind == "c" and dtype is complex):
        try:
            return arr.astype(dtype, copy=False)
        except (OverflowError, TypeError):  # 10**5000, a non-number
            pass
    raise ValueError(f"{what} must be {dtype.__name__} values")


def _mass_array(masses, *sides) -> tuple:
    # the bits of each (bits, name) side, each capped before 1 << bits is
    # built, then a private float copy of the 2^b1 x 2^b2 ... masses
    bits = [_integral(b, name, 0, DENSE_BITS_CAP) for b, name in sides]
    arr, shape = _numbers(masses, "masses"), tuple(1 << b for b in bits)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    return (*bits, arr)


def _validated_masses(arr: np.ndarray) -> np.ndarray:
    # every row along the last axis a law, checked in one pass and, as arr
    # is a private copy, divided in place; a NaN mass fails min() >= 0
    if not arr.min() >= 0:
        raise ValueError("negative or NaN probability mass")
    with np.errstate(over="ignore"):  # huge masses sum to inf, refused below
        totals = arr.sum(axis=-1, keepdims=True)
    gap = np.abs(totals - 1.0)
    bad = totals[gap > SUM_TOLERANCE]
    if bad.size:
        raise ValueError(f"masses sum to {bad.item(0)!r}, "
                         f"outside 1 +- {SUM_TOLERANCE}")
    # a row within n 2^-53 of 1 (n its length) is kept as given, so a law
    # built or read once passes through again unchanged
    off = gap > arr.shape[-1] * 2.0 ** -53
    if off.any():
        arr /= np.where(off, totals, 1.0)
    return arr


class Distribution:
    """Probability mass function over bitstrings of a fixed length.

    Dense form stores one float per outcome; the constructor rejects
    negative or NaN masses and totals off by more than 1e-9, divides
    masses whose total is more than n 2^-53 from 1 (n outcomes) by it, and
    stores masses within that window as given.  Spike form stores (spike
    outcome, eps) and represents eps * point(outcome) + (1 - eps) * uniform,
    so the uniform law is the eps = 0 spike; its lookups are computed with
    the exact expressions used by ``expand_dense``, so both forms answer
    ``prob`` identically bit for bit.

    As its masses are read-only, a dense law computes its maximum mass and
    ``statistical_distance(self, uniform)`` on the first query and keeps
    them, as a spike keeps its expansion (see ``_once``).
    """

    __slots__ = ("outcome_bits", "_dense", "_spike", "_memo")

    def __init__(self, outcome_bits: int, masses):
        if _integral(outcome_bits, "outcome_bits") > DENSE_BITS_CAP:
            raise ValueError(
                f"dense storage capped at {DENSE_BITS_CAP} bits; "
                "use Distribution.spike for larger spaces")
        self.outcome_bits, arr = _mass_array(
            masses, (outcome_bits, "outcome_bits"))
        self._dense = _validated_masses(arr)
        self._dense.flags.writeable = False
        self._spike = None
        self._memo = {}

    @classmethod
    def spike(cls, outcome_bits: int, epsilon: float, outcome) -> Distribution:
        """eps * point(outcome) + (1 - eps) * uniform over l-bit outcomes.

        The worst-case key law: its distance from uniform is eps (1 - 2^-l)
        while its guessing probability is eps + (1 - eps) 2^-l, so a single
        construction exercises both ends of the bound.
        """
        _within(epsilon, "epsilon", 0, 1)
        # the cap of every key length: above it -l is not an exact float
        outcome_bits = _integral(outcome_bits, "outcome_bits", 0,
                                 MAX_EXACT_LEN)
        idx = _outcome_index(outcome, outcome_bits)
        return _law(outcome_bits, spike=(idx, float(epsilon)))

    @classmethod
    def uniform(cls, outcome_bits: int) -> Distribution:
        return cls.spike(outcome_bits, 0.0, 0)

    # -- queries ---------------------------------------------------------

    @property
    def n_outcomes(self) -> int:
        return 1 << self.outcome_bits

    def prob(self, outcome) -> float:
        idx = _outcome_index(outcome, self.outcome_bits)
        if self._spike is None:
            return float(self._dense[idx])
        spike_idx, eps = self._spike
        background = self._background()
        return eps + background if idx == spike_idx else background

    def _background(self) -> float:
        # each non-spike mass; one expression, so both forms agree bit for bit
        return (1.0 - self._spike[1]) * 2.0 ** (-self.outcome_bits)

    @property
    def masses(self) -> np.ndarray:
        if self._spike is None:
            return self._dense
        # a spike keeps its expansion (see _once); its queries stay closed form
        return _once(self, "dense", self.expand_dense)._dense

    def expand_dense(self) -> Distribution:
        if self._spike is None:
            return self
        if self.outcome_bits > DENSE_BITS_CAP:
            raise ValueError(
                f"{self.outcome_bits}-bit space cannot be materialized")
        spike_idx, eps = self._spike
        background = self._background()
        if eps:
            arr = np.full(self.n_outcomes, background)
            arr[spike_idx] = eps + background
        else:  # the uniform law: one float, read through a stride-0 view
            arr = np.broadcast_to(background, (self.n_outcomes,))
        arr.flags.writeable = False
        # not renormalized, so lookups stay bit-identical to the spike form
        return _law(self.outcome_bits, dense=arr)

    def support_size(self) -> int:
        if self._spike is None:
            return int(np.count_nonzero(self._dense))
        _, eps = self._spike
        return 1 if eps >= 1.0 else self.n_outcomes

    def __repr__(self):
        if self._spike is not None:
            idx, eps = self._spike
            return f"Distribution.spike({self.outcome_bits}, {eps}, {idx})"
        return f"Distribution({self.outcome_bits}, <{self.n_outcomes} masses>)"


def _law(outcome_bits: int, dense=None, spike=None) -> Distribution:
    # the one builder that skips validation: a law from parts known valid
    law = object.__new__(Distribution)
    law.outcome_bits, law._dense, law._spike, law._memo = (
        outcome_bits, dense, spike, {})
    return law


class JointDistribution:
    """Joint mass function over a pair of bitstring spaces, indexed (x, y)."""

    __slots__ = ("x_bits", "y_bits", "masses")

    def __init__(self, x_bits: int, y_bits: int, masses):
        self.x_bits, self.y_bits, arr = _mass_array(
            masses, (x_bits, "x_bits"), (y_bits, "y_bits"))
        _validated_masses(arr.reshape(-1))  # one total, renormalized in place
        self.masses = arr
        self.masses.flags.writeable = False


class ConditionalChannel:
    """One output distribution per input outcome (a stochastic matrix)."""

    __slots__ = ("in_bits", "out_bits", "matrix")

    def __init__(self, in_bits: int, out_bits: int, rows):
        self.in_bits, self.out_bits, mat = _mass_array(
            rows, (in_bits, "in_bits"), (out_bits, "out_bits"))
        self.matrix = _validated_masses(mat)  # one total per row
        self.matrix.flags.writeable = False

    @classmethod
    def binary_symmetric(cls, flip: float) -> ConditionalChannel:
        _within(flip, "flip probability", 0, 1)
        return cls(1, 1, np.array([[1 - flip, flip], [flip, 1 - flip]]))


# -- operations ------------------------------------------------------------


def _check_same_space(p: Distribution, q: Distribution) -> None:
    if p.outcome_bits != q.outcome_bits:
        raise ValueError(
            f"outcome spaces differ: {p.outcome_bits} vs {q.outcome_bits} bits")


def _is_uniform(p: Distribution) -> bool:
    return p._spike is not None and p._spike[1] == 0.0


def _once(owner, key, compute):
    """The one cache keysec has: ``compute()``, kept in ``owner._memo``.

    It holds a dense law's summaries and sampler tables, a spike's
    expansion and a source model's block laws.  Each is a function of
    state its owner never changes (read-only masses, a frozen model), so
    no entry can go stale, and two threads filling one store equal values.
    """
    if key not in owner._memo:
        owner._memo[key] = compute()
    return owner._memo[key]


def statistical_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance (1/2) sum_x |p(x) - q(x)|."""
    _check_same_space(p, q)
    if p._spike is not None and q._spike is not None:
        return _spike_pair_distance(p, q)
    if _is_uniform(q):  # so p is dense
        return _once(p, "distance",
                     lambda: _total_variation(p.masses, q.masses))
    return _total_variation(p.masses, q.masses)


def _blockwise_sum(n: int, block_sum) -> float:
    """The sum of n values from the sums of their aligned blocks.

    ``block_sum(lo)`` returns the sum of values lo .. lo + _BLOCK - 1 (or
    up to n).  numpy sums a contiguous float64 array pairwise, splitting
    it in halves, so adding the block sums in the same halving order gives
    the whole array's ``np.sum`` bit for bit when n is a power of two,
    while no temporary outgrows one block.  Other lengths pad each odd
    level with 0.0, which is still a pairwise sum.
    """
    parts = np.array([block_sum(lo) for lo in range(0, n, _BLOCK)])
    while parts.size > 1:
        if parts.size % 2:
            parts = np.append(parts, 0.0)
        parts = parts[0::2] + parts[1::2]
    return parts[0]


def _difference_sum(a, b, term) -> float:
    # the sum of term(a - b) over two 1-D arrays of masses of one length,
    # one block at a time; term(d, out=d) maps differences in place
    n = a.size
    buf = np.empty(min(n, _BLOCK))

    def block_sum(lo):
        d = buf[:n - lo]  # the last block may be short
        np.subtract(a[lo:lo + _BLOCK], b[lo:lo + _BLOCK], out=d)
        return term(d, out=d).sum()

    return float(_blockwise_sum(n, block_sum))


def _total_variation(a, b) -> float:
    # (1/2) sum |a - b|, the one dense distance; capped, as rounding can pass 1
    return min(1.0, 0.5 * _difference_sum(a, b, np.abs))


def _spike_pair_distance(p: Distribution, q: Distribution) -> float:
    # The distance is sum_x (p(x) - q(x))^+.  Let p have the larger eps:
    # then q(x) >= p(x) off p's spike outcome, so only that one term counts,
    # e_p - [same outcome] e_q - (e_p - e_q) 2^-l.  Its pieces are exact
    # floats (until e 2^-l is subnormal), so fsum rounds the distance once.
    if p._spike[1] < q._spike[1]:
        p, q = q, p
    (i_p, e_p), (i_q, e_q) = p._spike, q._spike
    u = 2.0 ** (-p.outcome_bits)
    return math.fsum([e_p, -(i_p == i_q) * e_q, e_q * u, -e_p * u])


def _excess(p: Distribution, q: Distribution) -> float:
    """sum_x (p(x) - q(x))^+, the off-diagonal mass of the maximal coupling."""
    if p._spike is not None and q._spike is not None:
        return _spike_pair_distance(p, q)  # that same sum, in closed form
    return _difference_sum(p.masses, q.masses,
                           lambda d, out: np.maximum(d, 0.0, out=out))


def guessing_probability(p: Distribution) -> float:
    """Optimal single-guess success probability max_x p(x) = 2^(-Hmin)."""
    if p._spike is None:
        return _once(p, "max", lambda: float(p._dense.max()))
    return p._spike[1] + p._background()


def conditional_guessing_probability(j: JointDistribution) -> float:
    """sum_y P(y) max_x P(x|y): best guess of X after observing Y.

    Columns with zero total mass contribute nothing.  Never below the
    unconditional guessing probability of the X marginal.
    """
    return float(j.masses.max(axis=0).sum())


# -- file format -------------------------------------------------------------
#
# A distribution file is a JSON document with field "outcome_bits" and either
# "masses" (array of 2^outcome_bits reals, outcome index = integer value of
# the bitstring, MSB first) or "spike" {"outcome": bitstring literal,
# "epsilon": real}.  Reals are written with 17 significant digits so they
# round-trip exactly.


def _fmt(x: float) -> str:
    return format(float(x), ".16e")  # 17 significant digits


def dumps_distribution(dist: Distribution) -> str:
    if dist._spike is not None:
        idx, eps = dist._spike
        # idx's bits below a leading 1, so the 0-bit spike's literal is ""
        outcome = format(idx | (1 << dist.outcome_bits), "b")[1:]
        return ('{\n  "outcome_bits": %d,\n  "spike": {"outcome": "%s", '
                '"epsilon": %s}\n}\n' % (dist.outcome_bits, outcome, _fmt(eps)))
    body = ", ".join(_fmt(m) for m in dist.masses)
    return '{\n  "outcome_bits": %d,\n  "masses": [%s]\n}\n' % (
        dist.outcome_bits, body)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _unique_fields(pairs: list) -> dict:
    doc = {}
    for field, value in pairs:
        if field in doc:  # json.loads alone would keep the last one
            raise ValueError(f"field {field!r} appears twice")
        doc[field] = value
    return doc


def _read_document(text: str, kind: str, *fields: str) -> dict:
    """Parse a JSON object with ``fields``, each once; no NaN or Infinity."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant,
                         object_pairs_hook=_unique_fields)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None
    if not isinstance(doc, dict) or any(f not in doc for f in fields):
        raise ValueError(
            f"{kind} file must be a JSON object with fields {', '.join(fields)}")
    return doc


def _json_size(doc: dict, field: str) -> int:
    value = doc[field]
    if type(value) is not int:  # bool is a subclass of int, so not isinstance
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def _is_json_number(value) -> bool:
    # not bool, str, null or array, nor an integer that no float holds
    return type(value) is float or (type(value) is int
                                    and abs(value) <= sys.float_info.max)


def _json_numbers(values, what: str) -> list:
    if not isinstance(values, list) or not all(map(_is_json_number, values)):
        raise ValueError(f"{what} must be an array of JSON numbers")
    return values


def loads_distribution(text: str) -> Distribution:
    doc = _read_document(text, "distribution", "outcome_bits")
    bits = _json_size(doc, "outcome_bits")
    if ("masses" in doc) == ("spike" in doc):
        raise ValueError("exactly one of masses and spike is required")
    if "masses" in doc:
        return Distribution(bits, _json_numbers(doc["masses"], "masses"))
    spike = doc["spike"]
    if not isinstance(spike, dict) or not isinstance(spike.get("outcome"), str):
        raise ValueError("spike must be a JSON object with a bitstring "
                         "outcome and a number epsilon")
    eps = spike.get("epsilon")
    if not _is_json_number(eps):
        raise ValueError(f"epsilon must be a JSON number, got {eps!r}")
    # read directly, so any length passes that Distribution.spike takes
    outcome = spike["outcome"]
    if not set(outcome) <= {"0", "1"}:  # int(, 2) alone takes "0b1", "+1"
        raise ValueError(f"not a bitstring literal: {outcome!r}")
    if len(outcome) != bits:
        raise ValueError(f"outcome has {len(outcome)} bits, expected {bits}")
    return Distribution.spike(bits, eps, int(outcome or "0", 2))


def save_distribution(dist: Distribution, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_distribution(dist))


def load_distribution(path: str | os.PathLike) -> Distribution:
    with open(path) as fh:
        return loads_distribution(fh.read())
