"""Closed-form security-bound calculators in base-2 log-domain arithmetic.

Probabilities like 2^(-10^4) underflow any native float, so every bound
here is carried as a base-2 exponent (``LogProb``) and only converted to
a plain value when it is representable.  Covers the guessing-probability
bounds on an imperfect key, leakage-rate accounting, the finite-key
extractable length, and the security-rate trade-off solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bits import _integral

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
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(2.0 ** (lo - hi)) / math.log(2.0)


def binary_entropy(q: float) -> float:
    """h(q) = -q log2 q - (1-q) log2 (1-q), with 0 log 0 = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"binary entropy argument must be in [0, 1], got {q}")
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
        if not self.log2_value <= 0.0:  # also refuses NaN
            raise ValueError(f"log2_value must be <= 0, got {self.log2_value}")

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
    if not 0.0 <= eps_bar <= 1.0:
        raise ValueError(f"eps_bar must be in [0, 1], got {eps_bar}")
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
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be strictly inside (0, 1), got {eps}")
    f = -math.log2(eps)
    return LeakageProfile(f=f, leaked_bits=l / f)


def required_epsilon(l: int) -> LogProb:
    """Guess probability of a perfectly uniform l-bit key: 2^(-l)."""
    l = _check_key_len(l)
    return LogProb.from_log2(float(-l))


@dataclass(frozen=True)
class EfficiencyReport:
    ratio: float
    inverted: bool  # key rate exceeded raw rate; ratio > 1 is suspicious


def pipeline_efficiency(raw_rate_bps: float, key_rate_bps: float) -> EfficiencyReport:
    """Fraction of transmitted raw bits that survive as final key bits."""
    if not (0.0 < raw_rate_bps < math.inf and 0.0 < key_rate_bps < math.inf):
        raise ValueError("rates must be positive and finite")
    ratio = key_rate_bps / raw_rate_bps
    return EfficiencyReport(ratio=ratio, inverted=ratio > 1.0)


@dataclass(frozen=True)
class FiniteKeyParams:
    """Inputs to the extractable-key-length formula.

    ``leak_ec`` defaults to the reconciliation convention 1.1 n h(Q) when
    omitted.  ``eps_bar`` may be left None when the parameter set feeds
    the rate solver, which supplies its own.
    """

    n: int
    q: float
    mu: float = DEFAULT_MU
    leak_ec: float | None = None
    p_fail: float = DEFAULT_P_FAIL
    eps_cor: float = DEFAULT_EPS_COR
    eps_bar: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "n", _integral(self.n, "block length n", 1, MAX_EXACT_LEN))
        if not (self.q >= 0.0 and self.mu >= 0.0 and self.q + self.mu <= 1.0):
            raise ValueError("need 0 <= Q, 0 <= mu, Q + mu <= 1")
        for name in ("p_fail", "eps_cor"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        if self.eps_bar is not None and not 0.0 < self.eps_bar <= 1.0:
            raise ValueError(f"eps_bar must be in (0, 1], got {self.eps_bar}")
        if self.leak_ec is not None and not 0.0 <= self.leak_ec < math.inf:
            raise ValueError("leak_ec must be finite and >= 0")

    @property
    def effective_leak_ec(self) -> float:
        if self.leak_ec is not None:
            return self.leak_ec
        return DEFAULT_LEAK_FACTOR * self.n * binary_entropy(self.q)


def extractable_key_length(p: FiniteKeyParams) -> int:
    """Length of key extractable from an n-bit reconciled block.

    floor of n (1 - h(Q + mu)) - Leak_EC - log2(2 p_fail / (eps_bar^2
    eps_cor)), clamped at zero.  Logs are base 2: lengths are in bits.
    """
    if p.eps_bar is None:
        raise ValueError("eps_bar is required for a key-length evaluation")
    return max(0, math.floor(_key_bits(p, p.eps_bar)))


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
    if not 0.0 < s_target < math.inf:
        raise ValueError("s_target must be positive and finite")

    def excess(l: int) -> int:
        # L(s l) - l, or -1 once eps_bar = s l passes 1, past every root
        eps = s_target * l
        if eps > 1.0:
            return -1
        return extractable_key_length(replace(params, eps_bar=eps)) - l

    bits = _key_bits(params, 1.0)
    top = max(0, math.floor(bits))  # L(1), the longest key at any eps_bar
    lo, hi = 3, max(3, top)
    while lo < hi:
        mid = (lo + hi) // 2
        if excess(mid) > 0:
            lo = mid + 1
        else:
            hi = mid
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
    return FiniteKeyParams(n=n, q=DEFAULT_QBER, mu=DEFAULT_MU,
                           p_fail=DEFAULT_P_FAIL, eps_cor=DEFAULT_EPS_COR)
