"""Closed-form security-bound calculators in base-2 log-domain arithmetic.

Probabilities like 2^(-10^4) underflow any native float, so every bound
here is carried as a base-2 exponent (``LogProb``) and only converted to
a plain value when it is representable.  Covers the guessing-probability
bounds on an imperfect key, leakage-rate accounting, the finite-key
extractable length, and the security-rate trade-off solver.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

from .bits import _integral, _within

LOG10_2 = math.log10(2.0)
# above 2^53 a length is not an exact float: -l rounds, l * x can overflow
MAX_EXACT_LEN = 2**53

# Documented defaults for the rate trade-off demonstration.  The QBER sits
# just above the positive-key-rate threshold (asymptotic secret fraction
# about 1%), the regime where the block-length penalty dominates.
DEFAULT_QBER = 0.1007
DEFAULT_MU = 0.0
DEFAULT_P_FAIL = 1e-10
DEFAULT_EPS_COR = 1e-15
DEFAULT_LEAK_FACTOR = 1.1  # reconciliation inefficiency: leak = 1.1 n h(Q)


class NoSolutionError(Exception):
    """The requested security rate is unattainable for the given block."""


def log2_add(a: float, b: float) -> float:
    """log2(2^a + 2^b) without underflow."""
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(2.0 ** (lo - hi)) / math.log(2.0)


def binary_entropy(q: float) -> float:
    """h(q) = -q log2 q - (1-q) log2 (1-q), with 0 log 0 = 0."""
    _within(q, "binary entropy argument", 0, 1)
    if q == 0.0 or q == 1.0:
        return 0.0
    return float(-q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q))


@dataclass(frozen=True)
class LogProb:
    """A probability held as its base-2 exponent.

    ``log2_value`` is log2(p) and is never positive.  For probabilities
    within rounding of 1 the exact handle is the complement exponent:
    ``log2_complement`` = log2(1 - p) when known exactly, else None.
    """

    log2_value: float
    log2_complement: float | None = None

    def __post_init__(self):
        _within(self.log2_value, "log2_value", -math.inf, 0)
        if self.log2_complement is not None:
            _within(self.log2_complement, "log2_complement", -math.inf, 0)

    @classmethod
    def from_log2(cls, log2_value: float) -> LogProb:
        """Caps log2_value at 0; NaN reaches the constructor and is refused."""
        return cls(min(log2_value, 0.0))

    @classmethod
    def one_minus_pow2(cls, l: int) -> LogProb:
        """1 - 2^(-l), complement exponent exact for any key length l."""
        l = _check_key_len(l)
        x = 2.0 ** (-l)  # underflows to 0.0 for very large l; complement stays exact
        return cls(math.log1p(-x) / math.log(2.0), log2_complement=float(-l))

    @property
    def value(self) -> float:
        """Plain float value; underflows to 0.0 below about 2^-1074."""
        return 2.0 ** self.log2_value

    @property
    def log10(self) -> float:
        return self.log2_value * LOG10_2

    @property
    def complement_log10(self) -> float | None:
        if self.log2_complement is None:
            return None
        return self.log2_complement * LOG10_2


def _check_key_len(l: int) -> int:
    return _integral(l, "key length", 1, MAX_EXACT_LEN)


def _root_plus_uniform(eps_bar: float, l: int, root: float) -> LogProb:
    # eps_bar^(1/root) + 2^(-l) by log-sum-exp in base 2, capped at 1
    _within(eps_bar, "eps_bar", 0, 1)
    l = _check_key_len(l)
    if eps_bar == 0.0:
        return LogProb.from_log2(float(-l))
    return LogProb.from_log2(log2_add(math.log2(eps_bar) / root, float(-l)))


def yuen_upper_bound(eps_bar: float, l: int) -> LogProb:
    """Upper bound eps_bar + 2^(-l) on the average key-guess probability.

    The distance of the key law from uniform caps how far the best guess
    can beat the 2^(-l) uniform baseline.  Computed by log-sum-exp in
    base 2 so the 2^(-l) term survives any key length; capped at 1.
    """
    return _root_plus_uniform(eps_bar, l, 1.0)


def markov_individual_bound(eps_bar: float, l: int) -> LogProb:
    """Per-run bound eps_bar^(1/3) + 2^(-l) from the averaged one.

    Converting an averaged guarantee into an individual-run guarantee
    costs a cube root (two Markov-inequality steps).
    """
    return _root_plus_uniform(eps_bar, l, 3.0)


@dataclass(frozen=True)
class LeakageProfile:
    f: float            # one bit leaked per f key bits
    leaked_bits: float  # l / f


def leakage_profile(l: int, eps: float) -> LeakageProfile:
    """Leakage reading of a guess probability eps on an l-bit key.

    f = log2(1/eps) is the interval at which one bit's worth of guessing
    advantage accrues, so l / f bits may leak per protocol run.  The
    denominator log2(1/eps) is the only convention consistent with the
    worked figure of roughly 1,500 leaked bits per 10^4 at eps = 1e-2;
    the alternative reading l / log(1/l) is rejected (see README).
    """
    l = _check_key_len(l)
    _within(eps, "eps", 0, 1, "()")
    f = -math.log2(eps)
    return LeakageProfile(f=f, leaked_bits=l / f)


def required_epsilon(l: int) -> LogProb:
    """Guess probability of a perfectly uniform l-bit key: 2^(-l)."""
    l = _check_key_len(l)
    return LogProb.from_log2(float(-l))


def pipeline_efficiency(raw_rate_bps: float, key_rate_bps: float) -> float:
    """Fraction of transmitted raw bits that survive as final key bits.

    Above 1 is suspicious: the key outran the raw bits.  A quotient past
    the float range (raw rate 5e-324 bps) saturates at the largest float.
    """
    _within(raw_rate_bps, "raw_rate_bps", 0, math.inf, "()")
    _within(key_rate_bps, "key_rate_bps", 0, math.inf, "()")
    # Python floats overflow to inf without the warning of numpy scalars
    return min(float(key_rate_bps) / float(raw_rate_bps), sys.float_info.max)


@dataclass(frozen=True)
class FiniteKeyParams:
    """Protocol inputs to the key-length formula; eps_bar is its argument.

    ``leak_ec`` defaults to the reconciliation convention 1.1 n h(Q) when
    omitted.
    """

    n: int
    q: float
    mu: float = DEFAULT_MU
    leak_ec: float | None = None
    p_fail: float = DEFAULT_P_FAIL
    eps_cor: float = DEFAULT_EPS_COR

    def __post_init__(self):
        object.__setattr__(
            self, "n", _integral(self.n, "block length n", 1, MAX_EXACT_LEN))
        _within(self.q, "Q", 0, 1)
        _within(self.mu, "mu", 0, 1)
        _within(self.q + self.mu, "Q + mu", 0, 1)  # each bounded: no overflow
        _within(self.p_fail, "p_fail", 0, 1, "(]")
        _within(self.eps_cor, "eps_cor", 0, 1, "(]")
        if self.leak_ec is not None:
            _within(self.leak_ec, "leak_ec", 0, math.inf, "[)")

    @property
    def effective_leak_ec(self) -> float:
        if self.leak_ec is not None:
            return self.leak_ec
        return DEFAULT_LEAK_FACTOR * self.n * binary_entropy(self.q)


def extractable_key_length(p: FiniteKeyParams, eps_bar: float) -> int:
    """Length of key extractable from an n-bit reconciled block.

    floor of n (1 - h(Q + mu)) - Leak_EC - log2(2 p_fail / (eps_bar^2
    eps_cor)), clamped at zero.  Logs are base 2: lengths are in bits.
    """
    _within(eps_bar, "eps_bar", 0, 1, "(]")
    return max(0, math.floor(_key_bits(p, eps_bar)))


def _key_bits(p: FiniteKeyParams, eps_bar: float) -> float:
    # the key-length formula before the floor
    penalty = (1.0 + math.log2(p.p_fail) - 2.0 * math.log2(eps_bar)
               - math.log2(p.eps_cor))
    return (p.n * (1.0 - binary_entropy(p.q + p.mu))
            - p.effective_leak_ec - penalty)


@dataclass(frozen=True)
class RateSolution:
    eps_bar: float
    l: int
    rate: float  # l / n


def epsilon_for_security_rate(s_target: float,
                              params: FiniteKeyParams) -> RateSolution:
    """Least root eps_bar of eps_bar / l(eps_bar) = s_target.

    With L the key length, the roots are eps_bar = s l for the l >= 1 with
    L(s l) = l and s l <= 1.  l = 1 and 2 are tried directly.  From l = 3
    on, L(s (l + 1)) - L(s l) <= 1 since 2 log2(4/3) < 1, so L(s l) - l is
    nonincreasing and the first l <= L(1) where it is <= 0 is the only
    candidate left.  Raises NoSolutionError exactly when no root exists.
    Step k of L starts at eps_k = 2^((k - L*) / 2), L* the unfloored length
    at eps_bar = 1; targets from min_k eps_k / k (k = 3 when L(1) >= 3) up
    to 1 / L(1) all have roots, and one below is the vanishing-rate regime:
    this block length cannot meet the demanded per-bit security.
    """
    _within(s_target, "s_target", 0, math.inf, "()")

    def excess(l: int) -> int:
        # L(s l) - l, or -1 once eps_bar = s l passes 1, past every root;
        # a target above 1 passes it at every l, where s l could overflow
        if s_target > 1.0:
            return -1
        eps = s_target * l
        if eps > 1.0:
            return -1
        return extractable_key_length(params, eps) - l

    bits = _key_bits(params, 1.0)
    top = max(0, math.floor(bits))  # L(1), the longest key at any eps_bar
    lo = 3 + bisect.bisect_left(range(3, top), True,
                                key=lambda l: excess(l) <= 0)
    for l in (1, 2, lo):
        if excess(l) == 0:
            return RateSolution(eps_bar=s_target * l, l=l, rate=l / params.n)
    l = min(top, 3)
    least = 2.0 ** ((l - bits) / 2.0) / l if l else 0.0
    if s_target < least:
        raise NoSolutionError(
            f"rate vanishes at n={params.n}: closest achievable "
            f"eps_bar/l is {least:.3e} (l={l}), target {s_target:g}")
    raise NoSolutionError(
        f"no positive key length reaches security rate {s_target:g} "
        f"at n={params.n}")


def default_rate_params(n: int) -> FiniteKeyParams:
    """The documented parameter set for the rate trade-off, at block n."""
    return FiniteKeyParams(n=n, q=DEFAULT_QBER)
