"""Couplings of finite distributions and the mismatch/distance identities.

A coupling of (p, q) is a joint distribution whose marginals are p and q.
Over all couplings the mismatch Pr[X != Y] is bounded below by the total
variation distance, with equality achieved by the maximal coupling built
here.  That coupling is its diagonal min(p, q) plus one rank-one term, so
it is held as three vectors of 2^l masses, never as a 2^l x 2^l matrix;
an exact linear-program oracle provides independent confirmation at
small support sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import LinearConstraint, milp

from .bounds import LogProb
from .probdist import (ConditionalChannel, Distribution, _check_same_space,
                       _excess, _total_variation, statistical_distance)

ORACLE_SUPPORT_CAP = 6


@dataclass(frozen=True)
class Coupling:
    """The maximal coupling of two laws p and q.

    Entry (x, x) is ``overlap[x]`` = min(p(x), q(x)); entry (x, y) with
    x != y is ``excess_p[x] * excess_q[y] / delta``, where excess_p =
    (p - q)^+, excess_q = (q - p)^+ and delta = ``excess_p.sum()``.  For
    a pair that is not two spikes, delta is ``maximal_mismatch(p, q)``
    bit for bit wherever that is below 1.  excess_p * excess_q is zero
    everywhere, so the rank-one term adds nothing to the diagonal.  The
    three arrays are read-only.
    """

    overlap: np.ndarray
    excess_p: np.ndarray
    excess_q: np.ndarray


def maximal_mismatch(p: Distribution, q: Distribution) -> float:
    """Pr[X != Y] under ``maximal_coupling(p, q)``: its off-diagonal mass.

    That is the excess sum_x (p(x) - q(x))^+ the coupling normalizes by,
    so it needs no coupling and no cancelling 1 - sum_x min(p, q);
    ``probdist`` sums it over the masses up to the dense cap and in
    closed form above it.  The one way keysec computes the mismatch.
    """
    _check_same_space(p, q)
    return min(1.0, _excess(p, q))


def maximal_coupling(p: Distribution, q: Distribution) -> Coupling:
    """Coupling achieving Pr[X != Y] = statistical_distance(p, q).

    Three vectors of 2^l masses, O(2^l) to build at any dense size; see
    ``Coupling`` for its entries.  When p = q both excesses vanish and
    the coupling is purely diagonal.
    """
    _check_same_space(p, q)
    a, b = p.masses, q.masses
    overlap = np.minimum(a, b)
    parts = overlap, a - overlap, b - overlap
    for part in parts:
        part.flags.writeable = False
    return Coupling(*parts)


def min_mismatch_oracle(p: Distribution, q: Distribution) -> float:
    """Minimum of Pr[X != Y] over all couplings of (p, q).

    Solves the transportation linear program with mismatch cost over all
    couplings, independently of ``maximal_coupling``'s closed form and of
    ``maximal_mismatch``.  HiGHS solves it in floating point, so it
    matches the distance and that mismatch within solver tolerance, not
    bit for bit.  Restricted to supports of at most 6 outcomes.
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
    a_eq = np.vstack([np.kron(np.eye(nr), np.ones(nc)),
                      np.kron(np.ones(nr), np.eye(nc))])
    b_eq = np.concatenate([a[supp_p], b[supp_q]])
    # no integrality, so HiGHS solves the LP; milp's default bounds are x >= 0
    res = milp(cost.ravel(), constraints=LinearConstraint(a_eq, b_eq, b_eq))
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
    # the channel joint minus the copy joint diag(a), as one 4^l array
    d = a[:, None] * w.matrix
    d[np.diag_indices(a.size)] -= a
    delta_joint = _total_variation(d.ravel(), np.broadcast_to(0.0, (d.size,)))
    mismatch = min(1.0, max(0.0, 1.0 - float((a * np.diag(w.matrix)).sum())))
    return CopyChannelGap(delta_joint=delta_joint, mismatch=mismatch)


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
    failure = LogProb.one_minus_pow2(l)
    return ContradictionReport(delta=delta, maximal_mismatch=mismatch,
                               independent_failure=failure.value)
