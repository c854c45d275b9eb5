"""Exact finite probability distributions over bitstring outcome spaces.

Distributions are either dense (one mass per outcome, spaces up to 2^20)
or spike-shaped (a point mass of weight eps mixed with uniform background),
the latter usable at any length because every query it answers is closed
form.  All operations are pure; values are immutable after construction.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .bits import BitString

DENSE_BITS_CAP = 20
SUM_TOLERANCE = 1e-9


def _outcome_index(outcome, outcome_bits: int) -> int:
    if isinstance(outcome, BitString):
        if len(outcome) != outcome_bits:
            raise ValueError(
                f"outcome has {len(outcome)} bits, expected {outcome_bits}")
        return outcome.to_index()
    idx = int(outcome)
    if idx < 0 or idx >= (1 << outcome_bits):
        raise ValueError(f"outcome index {idx} out of range for {outcome_bits} bits")
    return idx


def _validated_masses(arr: np.ndarray) -> np.ndarray:
    # NaN fails ``>= 0``, so it is rejected together with negative masses.
    if not np.all(arr >= 0):
        raise ValueError("negative or NaN probability mass")
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
        if outcome_bits < 0:
            raise ValueError("outcome_bits must be >= 0")
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
        idx = _outcome_index(outcome, outcome_bits)
        self = object.__new__(cls)
        self.outcome_bits = outcome_bits
        self._dense = None
        self._spike = (idx, float(epsilon))
        return self

    @classmethod
    def uniform(cls, outcome_bits: int) -> Distribution:
        if outcome_bits <= DENSE_BITS_CAP:
            n = 1 << outcome_bits
            return cls._raw_dense(outcome_bits, np.full(n, 1.0 / n))
        return cls.spike(outcome_bits, 0.0, 0)

    @classmethod
    def point_mass(cls, outcome_bits: int, outcome) -> Distribution:
        if outcome_bits <= DENSE_BITS_CAP:
            arr = np.zeros(1 << outcome_bits)
            arr[_outcome_index(outcome, outcome_bits)] = 1.0
            return cls._raw_dense(outcome_bits, arr)
        return cls.spike(outcome_bits, 1.0, outcome)

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
        if self._dense is not None:
            return float(self._dense[idx])
        spike_idx, eps = self._spike
        background = self._background()
        return eps + background if idx == spike_idx else background

    def _background(self) -> float:
        # each non-spike mass; one expression, so both forms agree bit for bit
        return (1.0 - self._spike[1]) * 2.0 ** (-self.outcome_bits)

    @property
    def masses(self) -> np.ndarray:
        return self.expand_dense()._dense

    def expand_dense(self) -> Distribution:
        if self._dense is not None:
            return self
        if self.outcome_bits > DENSE_BITS_CAP:
            raise ValueError(
                f"{self.outcome_bits}-bit space cannot be materialized")
        spike_idx, eps = self._spike
        background = self._background()
        arr = np.full(self.n_outcomes, background)
        arr[spike_idx] = eps + background
        return Distribution._raw_dense(self.outcome_bits, arr)

    def max_prob(self) -> float:
        if self._dense is not None:
            return float(self._dense.max())
        return self._spike[1] + self._background()

    def map_outcome(self) -> BitString:
        """Most probable outcome; ties broken by lowest index."""
        if self._dense is not None:
            idx = int(np.argmax(self._dense))
        else:
            spike_idx, eps = self._spike
            idx = spike_idx if eps > 0.0 else 0
        return BitString.from_index(idx, self.outcome_bits)

    def support_size(self) -> int:
        if self._dense is not None:
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
        arr = np.array(masses, dtype=float)
        if arr.shape != (1 << x_bits, 1 << y_bits):
            raise ValueError(
                f"expected shape {(1 << x_bits, 1 << y_bits)}, got {arr.shape}")
        self.x_bits = x_bits
        self.y_bits = y_bits
        self.masses = _validated_masses(arr)
        self.masses.flags.writeable = False

    @classmethod
    def from_product(cls, p: Distribution, q: Distribution) -> JointDistribution:
        return cls(p.outcome_bits, q.outcome_bits,
                   np.outer(p.masses, q.masses))

    def marginal_x(self) -> Distribution:
        return Distribution(self.x_bits, self.masses.sum(axis=1))

    def marginal_y(self) -> Distribution:
        return Distribution(self.y_bits, self.masses.sum(axis=0))


class ConditionalChannel:
    """One output distribution per input outcome (a stochastic matrix)."""

    __slots__ = ("in_bits", "out_bits", "matrix")

    def __init__(self, in_bits: int, out_bits: int, rows):
        mat = np.array(rows, dtype=float)
        if mat.shape != (1 << in_bits, 1 << out_bits):
            raise ValueError(
                f"expected shape {(1 << in_bits, 1 << out_bits)}, got {mat.shape}")
        for row in mat:
            Distribution(out_bits, row)  # validates each row
        self.in_bits = in_bits
        self.out_bits = out_bits
        self.matrix = mat
        self.matrix.flags.writeable = False

    @classmethod
    def identity(cls, bits: int) -> ConditionalChannel:
        return cls(bits, bits, np.eye(1 << bits))

    @classmethod
    def binary_symmetric(cls, flip: float) -> ConditionalChannel:
        if not 0.0 <= flip <= 1.0:
            raise ValueError("flip probability must be in [0, 1]")
        return cls(1, 1, np.array([[1 - flip, flip], [flip, 1 - flip]]))

    def _check_input(self, p: Distribution) -> None:
        if p.outcome_bits != self.in_bits:
            raise ValueError(
                f"input has {p.outcome_bits} bits, channel expects {self.in_bits}")

    def apply(self, p: Distribution) -> Distribution:
        self._check_input(p)
        return Distribution(self.out_bits, p.masses @ self.matrix)

    def joint_with_input(self, p: Distribution) -> JointDistribution:
        self._check_input(p)
        return JointDistribution(self.in_bits, self.out_bits,
                                 p.masses[:, None] * self.matrix)


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


def _total_variation(a, b) -> float:
    # (1/2) sum |a - b| over arrays of masses (or a scalar background).
    return float(0.5 * np.abs(a - b).sum())


def _spike_pair_distance(p: Distribution, q: Distribution) -> float:
    # Closed form for spaces too large to materialize.  (2^l - 1) * 2^-l and
    # (2^l - 2) * 2^-l are rewritten as 1 - u and 1 - 2u to avoid overflow.
    if not (p.is_spike and q.is_spike):
        raise ValueError("large outcome spaces require spike form")
    l = p.outcome_bits
    u = 2.0 ** (-l)
    (i1, e1), (i2, e2) = p.spike_params, q.spike_params
    if i1 == i2:
        return abs(e1 - e2) * (1.0 - u)
    bg1, bg2 = p._background(), q._background()
    return 0.5 * (abs(e1 + bg1 - bg2) + abs(e2 + bg2 - bg1)
                  + (1.0 - 2.0 * u) * abs(e1 - e2))


def guessing_probability(p: Distribution) -> float:
    """Optimal single-guess success probability max_x p(x) = 2^(-Hmin)."""
    return p.max_prob()


def conditional_guessing_probability(j: JointDistribution) -> float:
    """sum_y P(y) max_x P(x|y): best guess of X after observing Y.

    Columns with zero total mass contribute nothing.  Never below the
    unconditional guessing probability of the X marginal.
    """
    return float(j.masses.max(axis=0).sum())


def binary_entropy(q: float) -> float:
    """h(q) = -q log2 q - (1-q) log2 (1-q), with 0 log 0 = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"binary entropy argument must be in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return float(-q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q))


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


def loads_distribution(text: str) -> Distribution:
    doc = _read_document(text, "distribution", "outcome_bits")
    bits = int(doc["outcome_bits"])
    if "masses" in doc:
        return Distribution(bits, doc["masses"])
    if "spike" in doc:
        spike = doc["spike"]
        outcome = BitString.from_str(spike["outcome"])
        return Distribution.spike(bits, float(spike["epsilon"]), outcome)
    raise ValueError("distribution file needs either masses or spike")


def save_distribution(dist: Distribution, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_distribution(dist))


def load_distribution(path: str | os.PathLike) -> Distribution:
    with open(path) as fh:
        return loads_distribution(fh.read())
