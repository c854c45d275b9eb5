"""Exact finite probability distributions over bitstring outcome spaces.

Distributions are either dense (one mass per outcome, spaces up to 2^20)
or spike-shaped (a point mass of weight eps mixed with uniform background),
the latter usable at up to 2^53 bits because every query it answers is
closed form.  This is the one module that reads a spike's layout: above
the dense cap it also holds the pair sums, the distance and the overlap
sum_x min(p, q) behind ``coupling.maximal_mismatch``.  All operations are
pure; values are immutable after construction.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .bits import BitString, _integral
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
    idx = _integral(outcome, "outcome index")
    if idx.bit_length() > outcome_bits:
        # only now is 2^outcome_bits below idx, so the cap is cheap to build
        _integral(idx, "outcome index", 0, (1 << outcome_bits) - 1)
    return idx


def _validated_masses(arr: np.ndarray) -> np.ndarray:
    # NaN fails ``>= 0``, so it is rejected together with negative masses.
    if not np.all(arr >= 0):
        raise ValueError("negative or NaN probability mass")
    with np.errstate(over="ignore"):  # huge masses sum to inf, refused below
        total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ValueError(f"masses sum to {total!r}, outside 1 +- {SUM_TOLERANCE}")
    if total != 1.0:
        arr = arr / total
    return arr


class Distribution:
    """Probability mass function over bitstrings of a fixed length.

    Dense form stores one float per outcome; the constructor rejects
    negative or NaN masses and totals off by more than 1e-9, and renormalizes
    smaller deviations.  Spike form stores (spike outcome, eps) and
    represents eps * point(outcome) + (1 - eps) * uniform; its lookups
    are computed with the exact expressions used by ``expand_dense``,
    so both forms answer ``prob`` identically bit for bit.
    """

    __slots__ = ("outcome_bits", "_dense", "_spike")

    def __init__(self, outcome_bits: int, masses):
        outcome_bits = _integral(outcome_bits, "outcome_bits")
        if outcome_bits > DENSE_BITS_CAP:
            raise ValueError(
                f"dense storage capped at {DENSE_BITS_CAP} bits; "
                "use Distribution.spike for larger spaces")
        arr = np.array(masses, dtype=float)  # private copy, frozen below
        if arr.shape != (1 << outcome_bits,):
            raise ValueError(
                f"expected {1 << outcome_bits} masses, got {arr.shape}")
        self.outcome_bits = outcome_bits
        self._dense = _validated_masses(arr)
        self._dense.flags.writeable = False
        self._spike = None

    @classmethod
    def _raw_dense(cls, outcome_bits: int, arr: np.ndarray) -> Distribution:
        # Bypasses renormalization; caller guarantees validity.  Needed so a
        # spike expansion keeps lookup values bit-identical to the spike form.
        self = object.__new__(cls)
        self.outcome_bits = outcome_bits
        self._dense = np.asarray(arr, dtype=float)
        self._dense.flags.writeable = False
        self._spike = None
        return self

    @classmethod
    def spike(cls, outcome_bits: int, epsilon: float, outcome) -> Distribution:
        """eps * point(outcome) + (1 - eps) * uniform over l-bit outcomes.

        The worst-case key law: its distance from uniform is eps (1 - 2^-l)
        while its guessing probability is eps + (1 - eps) 2^-l, so a single
        construction exercises both ends of the bound.
        """
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        # the cap of every key length: above it -l is not an exact float
        outcome_bits = _integral(outcome_bits, "outcome_bits", 0,
                                 MAX_EXACT_LEN)
        idx = _outcome_index(outcome, outcome_bits)
        self = object.__new__(cls)
        self.outcome_bits = outcome_bits
        self._dense = None
        self._spike = (idx, float(epsilon))
        return self

    @classmethod
    def uniform(cls, outcome_bits: int) -> Distribution:
        outcome_bits = _integral(outcome_bits, "outcome_bits")
        if outcome_bits <= DENSE_BITS_CAP:
            n = 1 << outcome_bits
            return cls._raw_dense(outcome_bits, np.full(n, 1.0 / n))
        return cls.spike(outcome_bits, 0.0, 0)

    # -- queries ---------------------------------------------------------

    @property
    def is_spike(self) -> bool:
        return self._spike is not None

    @property
    def n_outcomes(self) -> int:
        return 1 << self.outcome_bits

    @property
    def spike_params(self) -> tuple[int, float]:
        if self._spike is None:
            raise ValueError("not in spike form")
        return self._spike

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
        # a spike keeps its expansion, built on the first read, in _dense;
        # its queries still branch on _spike, so they stay closed form
        if self._dense is None:
            self._dense = self.expand_dense()._dense
        return self._dense

    def expand_dense(self) -> Distribution:
        if self._spike is None:
            return self
        if self.outcome_bits > DENSE_BITS_CAP:
            raise ValueError(
                f"{self.outcome_bits}-bit space cannot be materialized")
        spike_idx, eps = self._spike
        background = self._background()
        arr = np.full(self.n_outcomes, background)
        arr[spike_idx] = eps + background
        return Distribution._raw_dense(self.outcome_bits, arr)

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


class JointDistribution:
    """Joint mass function over a pair of bitstring spaces, indexed (x, y)."""

    __slots__ = ("x_bits", "y_bits", "masses")

    def __init__(self, x_bits: int, y_bits: int, masses):
        x_bits = _integral(x_bits, "x_bits")
        y_bits = _integral(y_bits, "y_bits")
        arr = np.array(masses, dtype=float)
        if arr.shape != (1 << x_bits, 1 << y_bits):
            raise ValueError(
                f"expected shape {(1 << x_bits, 1 << y_bits)}, got {arr.shape}")
        self.x_bits = x_bits
        self.y_bits = y_bits
        self.masses = _validated_masses(arr)
        self.masses.flags.writeable = False


class ConditionalChannel:
    """One output distribution per input outcome (a stochastic matrix)."""

    __slots__ = ("in_bits", "out_bits", "matrix")

    def __init__(self, in_bits: int, out_bits: int, rows):
        in_bits = _integral(in_bits, "in_bits")
        out_bits = _integral(out_bits, "out_bits")
        mat = np.array(rows, dtype=float)
        if mat.shape != (1 << in_bits, 1 << out_bits):
            raise ValueError(
                f"expected shape {(1 << in_bits, 1 << out_bits)}, got {mat.shape}")
        for i, row in enumerate(mat):
            mat[i] = _validated_masses(row)
        self.in_bits = in_bits
        self.out_bits = out_bits
        self.matrix = mat
        self.matrix.flags.writeable = False

    @classmethod
    def binary_symmetric(cls, flip: float) -> ConditionalChannel:
        if not 0.0 <= flip <= 1.0:
            raise ValueError("flip probability must be in [0, 1]")
        return cls(1, 1, np.array([[1 - flip, flip], [flip, 1 - flip]]))


# -- operations ------------------------------------------------------------


def _check_same_space(p: Distribution, q: Distribution) -> None:
    if p.outcome_bits != q.outcome_bits:
        raise ValueError(
            f"outcome spaces differ: {p.outcome_bits} vs {q.outcome_bits} bits")


def statistical_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance (1/2) sum_x |p(x) - q(x)|."""
    _check_same_space(p, q)
    if p.outcome_bits <= DENSE_BITS_CAP:
        return _total_variation(p.masses, q.masses)
    return _spike_pair_distance(p, q)


def _blockwise_sum(n: int, block_sum) -> float:
    """``np.sum`` of n values from the sums of their aligned blocks.

    ``block_sum(lo)`` returns the sum of values lo .. lo + _BLOCK - 1 (of
    all n when n <= _BLOCK), and n must be a power of two.  numpy sums a
    contiguous float64 array pairwise, splitting it in halves, so adding
    the block sums in the same halving order gives the whole array's
    ``np.sum`` bit for bit, while no temporary outgrows one block.
    """
    parts = np.array([block_sum(lo) for lo in range(0, n, _BLOCK)])
    while parts.size > 1:
        parts = parts[0::2] + parts[1::2]
    return parts[0]


def _total_variation(a, b) -> float:
    # (1/2) sum |a - b| over arrays of masses (or a scalar background).
    n = np.size(a)
    if np.ndim(a) != 1 or n & (n - 1):
        return float(0.5 * np.abs(a - b).sum())
    buf = np.empty(min(n, _BLOCK))

    def block_sum(lo):
        b_lo = b[lo:lo + _BLOCK] if np.ndim(b) else b
        np.subtract(a[lo:lo + _BLOCK], b_lo, out=buf)
        return np.abs(buf, out=buf).sum()

    return float(0.5 * _blockwise_sum(n, block_sum))


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


def _overlap(p: Distribution, q: Distribution) -> float:
    """sum_x min(p(x), q(x)), the diagonal mass of the maximal coupling."""
    if p.outcome_bits <= DENSE_BITS_CAP:
        a, b = p.masses, q.masses
        buf = np.empty(min(a.size, _BLOCK))
        return float(_blockwise_sum(a.size, lambda lo: np.minimum(
            a[lo:lo + _BLOCK], b[lo:lo + _BLOCK], out=buf).sum()))
    # two spike laws: the terms at the spike outcomes U = {i_p, i_q}, plus
    # min(1 - e_p, 1 - e_q) 2^-l at each of the other 2^l - |U| outcomes,
    # written (1 - |U| 2^-l) min(...) so that 2^l is never formed
    union = {p._spike[0], q._spike[0]}
    return (sum(min(p.prob(x), q.prob(x)) for x in union)
            + (1.0 - len(union) * 2.0 ** (-p.outcome_bits))
            * min(1.0 - p._spike[1], 1.0 - q._spike[1]))


def guessing_probability(p: Distribution) -> float:
    """Optimal single-guess success probability max_x p(x) = 2^(-Hmin)."""
    if p._spike is None:
        return float(p._dense.max())
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
    if dist.is_spike:
        idx, eps = dist.spike_params
        outcome = str(BitString.from_index(idx, dist.outcome_bits))
        return ('{\n  "outcome_bits": %d,\n  "spike": {"outcome": "%s", '
                '"epsilon": %s}\n}\n' % (dist.outcome_bits, outcome, _fmt(eps)))
    body = ", ".join(_fmt(m) for m in dist.masses)
    return '{\n  "outcome_bits": %d,\n  "masses": [%s]\n}\n' % (
        dist.outcome_bits, body)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _read_document(text: str, kind: str, *fields: str) -> dict:
    """Parse a JSON object carrying ``fields``; NaN and Infinity are refused."""
    doc = json.loads(text, parse_constant=_reject_constant)
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
    return type(value) in (int, float)  # not bool, str, null or array


def _json_numbers(values, what: str) -> list:
    if not isinstance(values, list) or not all(map(_is_json_number, values)):
        raise ValueError(f"{what} must be an array of JSON numbers")
    return values


def loads_distribution(text: str) -> Distribution:
    doc = _read_document(text, "distribution", "outcome_bits")
    bits = _json_size(doc, "outcome_bits")
    if "masses" in doc:
        return Distribution(bits, _json_numbers(doc["masses"], "masses"))
    if "spike" in doc:
        spike = doc["spike"]
        if not isinstance(spike, dict) or \
                not isinstance(spike.get("outcome"), str):
            raise ValueError("spike must be a JSON object with a bitstring "
                             "outcome and a number epsilon")
        eps = spike.get("epsilon")
        if not _is_json_number(eps):
            raise ValueError(f"epsilon must be a JSON number, got {eps!r}")
        return Distribution.spike(bits, eps, BitString.from_str(spike["outcome"]))
    raise ValueError("distribution file needs either masses or spike")


def save_distribution(dist: Distribution, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_distribution(dist))


def load_distribution(path: str | os.PathLike) -> Distribution:
    with open(path) as fh:
        return loads_distribution(fh.read())
