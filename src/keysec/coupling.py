"""Couplings of finite distributions and the mismatch/distance identities.

A coupling of (p, q) is a joint distribution whose marginals are p and q.
Over all couplings the mismatch Pr[X != Y] is bounded below by the total
variation distance, with equality achieved by the maximal coupling built
here; an exact linear-program oracle provides independent confirmation at
small support sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .bounds import LogProb
from .probdist import (ConditionalChannel, Distribution, JointDistribution,
                       _check_same_space, _overlap, _total_variation,
                       statistical_distance)

ORACLE_SUPPORT_CAP = 6
MARGINAL_TOLERANCE = 1e-9
# maximal_coupling's 2^l x 2^l joint is 128 MiB of float64 at 12 bits
COUPLING_BITS_CAP = 12


@dataclass(frozen=True)
class Coupling:
    """Joint distribution over (X, Y) with declared marginals p and q."""

    joint: JointDistribution
    declared_p: Distribution
    declared_q: Distribution

    def __post_init__(self):
        j = self.joint
        if j.x_bits != j.y_bits:
            raise ValueError("coupling requires x_bits == y_bits")
        if (self.declared_p.outcome_bits != j.x_bits
                or self.declared_q.outcome_bits != j.y_bits):
            raise ValueError("declared marginals do not match the joint's spaces")
        row = j.masses.sum(axis=1)
        col = j.masses.sum(axis=0)
        if np.abs(row - self.declared_p.masses).max() > MARGINAL_TOLERANCE:
            raise ValueError("row marginal deviates from declared_p")
        if np.abs(col - self.declared_q.masses).max() > MARGINAL_TOLERANCE:
            raise ValueError("column marginal deviates from declared_q")


def mismatch_probability(c: Coupling) -> float:
    """Pr[X != Y] = 1 - sum_x joint(x, x), clamped to [0, 1]."""
    agree = float(np.trace(c.joint.masses))
    return min(1.0, max(0.0, 1.0 - agree))


def maximal_mismatch(p: Distribution, q: Distribution) -> float:
    """Pr[X != Y] under ``maximal_coupling(p, q)``, read off its diagonal.

    The diagonal is min(p(x), q(x)), so the mismatch is 1 - sum_x min(p, q)
    and needs no 2^l x 2^l joint law; ``probdist`` sums the overlap over
    the masses up to the dense cap and in closed form above it.
    """
    _check_same_space(p, q)
    return min(1.0, max(0.0, 1.0 - _overlap(p, q)))


def maximal_coupling(p: Distribution, q: Distribution) -> Coupling:
    """Coupling achieving Pr[X != Y] = statistical_distance(p, q).

    Diagonal entries take min(p(x), q(x)); the leftover masses
    (p - q)+ and (q - p)+ are paired off-diagonally via their outer
    product normalized by the total variation distance.  When p = q the
    residual vanishes and the coupling is purely diagonal.  Capped at
    12-bit laws; ``maximal_mismatch`` needs no joint and has no cap.
    """
    _check_same_space(p, q)
    if p.outcome_bits > COUPLING_BITS_CAP:
        raise ValueError(f"maximal coupling capped at {COUPLING_BITS_CAP} "
                         f"bits, got {p.outcome_bits}")
    a, b = p.masses, q.masses
    overlap = np.minimum(a, b)
    excess_p = a - overlap
    excess_q = b - overlap
    delta = float(excess_p.sum())
    joint = np.diag(overlap)
    if delta > 0.0:
        joint = joint + np.outer(excess_p, excess_q) / delta
    return Coupling(JointDistribution(p.outcome_bits, q.outcome_bits, joint),
                    p, q)


def min_mismatch_oracle(p: Distribution, q: Distribution) -> float:
    """Minimum of Pr[X != Y] over all couplings of (p, q).

    Solves the transportation linear program with mismatch cost directly,
    independently of the explicit construction in ``maximal_coupling``.
    HiGHS solves it in floating point, so it matches the distance to
    within solver tolerance, not bit for bit.  Restricted to supports of
    at most 6 outcomes.
    """
    _check_same_space(p, q)
    a, b = p.masses, q.masses
    supp_p = np.flatnonzero(a)
    supp_q = np.flatnonzero(b)
    if len(supp_p) > ORACLE_SUPPORT_CAP or len(supp_q) > ORACLE_SUPPORT_CAP:
        raise ValueError(
            f"oracle support capped at {ORACLE_SUPPORT_CAP} outcomes; "
            f"got {len(supp_p)} x {len(supp_q)}")
    nr, nc = len(supp_p), len(supp_q)
    cost = (supp_p[:, None] != supp_q[None, :]).astype(float)
    a_eq = np.zeros((nr + nc, nr * nc))
    for i in range(nr):
        a_eq[i, i * nc:(i + 1) * nc] = 1.0
    for j in range(nc):
        a_eq[nr + j, j::nc] = 1.0
    b_eq = np.concatenate([a[supp_p], b[supp_q]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"coupling LP failed: {res.message}")
    return float(res.fun)


@dataclass(frozen=True)
class CopyChannelGap:
    delta_joint: float
    mismatch: float


def copy_vs_channel_gap(p: Distribution, w: ConditionalChannel) -> CopyChannelGap:
    """Compare a perfect copy of X against a noisy channel output.

    Returns the total variation distance between the joint law of
    (X, perfect copy) and the joint law of (X, channel output), together
    with the channel's flip probability Pr[X != Y].  The two coincide:
    the copy joint is supported on the diagonal, so every off-diagonal
    channel mass counts once and the diagonal deficit counts once more.
    """
    if w.in_bits != w.out_bits:
        raise ValueError(
            f"channel must be square, got {w.in_bits} -> {w.out_bits} bits")
    if p.outcome_bits != w.in_bits:
        raise ValueError(
            f"input has {p.outcome_bits} bits, channel expects {w.in_bits}")
    a = p.masses
    copy_joint = np.diag(a)
    channel_joint = a[:, None] * w.matrix
    delta_joint = _total_variation(copy_joint, channel_joint)
    mismatch = min(1.0, max(0.0, 1.0 - float((a * np.diag(w.matrix)).sum())))
    return CopyChannelGap(delta_joint=delta_joint, mismatch=mismatch)


def independent_coupling_failure(l: int) -> LogProb:
    """Pr[K != K'] for an independent uniform comparison key: 1 - 2^(-l).

    Independent of the distribution of K, since sum_k P(k) 2^(-l) = 2^(-l)
    for every P(K).  Kept exact through the complement exponent -l.
    """
    return LogProb.one_minus_pow2(l)


@dataclass(frozen=True)
class ContradictionReport:
    """Three numbers that refuse to be the same probability.

    ``delta`` is the distance of the key law from uniform;
    ``maximal_mismatch`` is Pr[K != K_U] under the one specially built
    coupling that attains it; ``independent_failure`` is Pr[K != K_U]
    when the comparison key is drawn independently, which is 1 - 2^(-l)
    no matter how small delta is.
    """

    delta: float
    maximal_mismatch: float
    independent_failure: float


def contradiction_report(p_k: Distribution) -> ContradictionReport:
    l = p_k.outcome_bits
    uniform = Distribution.uniform(l)
    delta = statistical_distance(p_k, uniform)
    mismatch = maximal_mismatch(p_k, uniform)
    failure = independent_coupling_failure(l)
    return ContradictionReport(delta=delta, maximal_mismatch=mismatch,
                               independent_failure=failure.value)
