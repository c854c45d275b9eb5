"""Every real argument with a range goes through one check, ``bits._within``.

NaN, both infinities, values just outside either end, a numpy scalar, a
Python and a numpy complex value and an integer past the 4300-digit limit
of ``str()``, of either sign, raise ValueError with the one message
``<name> must be in <interval>, got <value>``, where ``(`` and ``)`` mark
an open end; the numpy scalars print plainly and the integer by its bit
length.  Where an end is infinite, an integer inside that no float holds
gets ``<name> must be in the float range, got <value>`` instead.
"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from keysec import (BernoulliSource, ConditionalChannel, DensityMatrix,
                    Distribution, FiniteKeyParams, LogProb, NoSolutionError,
                    binary_entropy, default_rate_params,
                    epsilon_for_security_rate, extractable_key_length,
                    helstrom_min_error, leakage_profile, pipeline_efficiency,
                    yuen_upper_bound)
from keysec.cli import _cmd_bounds

RHO = DensityMatrix.diagonal(np.array([1.0, 0.0]))
PARAMS = default_rate_params(10**4)

# (id, call taking the argument, name in the message, lo, hi, ends)
SITES = [
    ("Distribution.spike", lambda v: Distribution.spike(2, v, 0),
     "epsilon", 0, 1, "[]"),
    ("binary_symmetric", ConditionalChannel.binary_symmetric,
     "flip probability", 0, 1, "[]"),
    ("binary_entropy", binary_entropy, "binary entropy argument", 0, 1, "[]"),
    ("yuen_upper_bound", lambda v: yuen_upper_bound(v, 8), "eps_bar", 0, 1,
     "[]"),
    ("helstrom_min_error", lambda v: helstrom_min_error(RHO, RHO, v),
     "prior", 0, 1, "[]"),
    ("BernoulliSource", BernoulliSource, "bias", -0.5, 0.5, "[]"),
    ("cli bounds", lambda v: _cmd_bounds(SimpleNamespace(eps_bar=v,
                                                         key_len=8)),
     "--eps-bar", 0, 1, "[]"),
    ("LogProb", LogProb, "log2_value", -math.inf, 0, "[]"),
    ("LogProb.log2_complement", lambda v: LogProb(-1.0, log2_complement=v),
     "log2_complement", -math.inf, 0, "[]"),
    ("leakage_profile", lambda v: leakage_profile(10, v), "eps", 0, 1, "()"),
    ("pipeline_efficiency.raw", lambda v: pipeline_efficiency(v, 1.0),
     "raw_rate_bps", 0, math.inf, "()"),
    ("pipeline_efficiency.key", lambda v: pipeline_efficiency(1.0, v),
     "key_rate_bps", 0, math.inf, "()"),
    ("epsilon_for_security_rate",
     lambda v: epsilon_for_security_rate(v, PARAMS), "s_target", 0, math.inf,
     "()"),
    ("FiniteKeyParams.q", lambda v: FiniteKeyParams(n=10, q=v), "Q", 0, 1,
     "[]"),
    ("FiniteKeyParams.mu", lambda v: FiniteKeyParams(n=10, q=0.0, mu=v),
     "mu", 0, 1, "[]"),
    ("FiniteKeyParams.p_fail",
     lambda v: FiniteKeyParams(n=10, q=0.1, p_fail=v), "p_fail", 0, 1, "(]"),
    ("FiniteKeyParams.eps_cor",
     lambda v: FiniteKeyParams(n=10, q=0.1, eps_cor=v), "eps_cor", 0, 1,
     "(]"),
    ("FiniteKeyParams.leak_ec",
     lambda v: FiniteKeyParams(n=10, q=0.1, leak_ec=v), "leak_ec", 0,
     math.inf, "[)"),
    ("extractable_key_length",
     lambda v: extractable_key_length(PARAMS, v), "eps_bar", 0, 1, "(]"),
]
IDS = [s[0] for s in SITES]


def _inner(lo, hi):
    # a value well inside the interval
    if math.isinf(hi):
        return lo + 1
    return hi - 1 if math.isinf(lo) else (lo + hi) / 2


@pytest.mark.parametrize("call, name, lo, hi, ends", [s[1:] for s in SITES],
                         ids=IDS)
@pytest.mark.parametrize("where", ["nan", "inf", "-inf", "lo", "hi", "huge",
                                   "-huge", "numpy", "float32", "float16",
                                   "complex", "1j"])
def test_outside_the_closed_interval(call, name, lo, hi, ends, where):
    value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "lo": lo if ends[0] == "(" else lo - 1e-9,
             "hi": hi if ends[1] == ")" else hi + 1e-9,
             "huge": 10**5000, "-huge": -10**5000,
             "numpy": np.float64(hi + 1), "float32": np.float32(hi + 1),
             "float16": np.float16(hi + 1),
             "complex": np.complex128(_inner(lo, hi)), "1j": 1j}[where]
    if value == -math.inf == lo:
        call(value)  # the closed end -inf is inside
        return
    shown = {"huge": "an integer of 16610 bits",
             "-huge": "a negative integer of 16610 bits"}.get(where, value)
    if (where == "huge" and hi == math.inf
            or where == "-huge" and lo == -math.inf):
        span = "the float range"
    else:
        span = f"{ends[0]}{lo}, {hi}{ends[1]}"
    message = f"{name} must be in {span}, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("call, name, lo, hi, ends", [s[1:] for s in SITES],
                         ids=IDS)
@pytest.mark.parametrize("end", ["lo", "hi"])
def test_just_inside_each_end(call, name, lo, hi, ends, end):
    value = {"lo": math.nextafter(lo, hi) if ends[0] == "(" else lo,
             "hi": math.nextafter(hi, lo) if ends[1] == ")" else hi}[end]
    try:
        call(value)
    except NoSolutionError:  # past the check: the solver found no root
        pass


@pytest.mark.parametrize("call, name, lo, hi, ends", [s[1:] for s in SITES],
                         ids=IDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_narrow_numpy_float_inside(call, name, lo, hi, ends, dtype):
    # no check may cast a bound or the float range to the narrow type:
    # LogProb(np.float32(-1)) once overflowed casting sys.float_info.max
    try:
        call(dtype(_inner(lo, hi)))
    except NoSolutionError:  # past the check: the solver found no root
        pass


def test_q_plus_mu_checked_after_each():
    message = "Q + mu must be in [0, 1], got 1.25"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FiniteKeyParams(n=10, q=0.5, mu=0.75)
