"""Every closed-interval argument goes through one check, ``bits._within``.

NaN, both infinities, values just outside either end, a numpy scalar, a
numpy complex scalar inside the interval and an integer past the 4300-digit
limit of ``str()`` raise ValueError with the one message ``<name> must be in
[lo, hi], got <value>``; the numpy scalars print plainly and the integer by
its bit length.
"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from keysec import (BernoulliSource, ConditionalChannel, DensityMatrix,
                    Distribution, binary_entropy, helstrom_min_error,
                    yuen_upper_bound)
from keysec.cli import _cmd_bounds

RHO = DensityMatrix.diagonal(np.array([1.0, 0.0]))

# (id, call taking the argument, name in the message, lo, hi)
SITES = [
    ("Distribution.spike", lambda v: Distribution.spike(2, v, 0),
     "epsilon", 0, 1),
    ("binary_symmetric", ConditionalChannel.binary_symmetric,
     "flip probability", 0, 1),
    ("binary_entropy", binary_entropy, "binary entropy argument", 0, 1),
    ("yuen_upper_bound", lambda v: yuen_upper_bound(v, 8), "eps_bar", 0, 1),
    ("helstrom_min_error", lambda v: helstrom_min_error(RHO, RHO, v),
     "prior", 0, 1),
    ("BernoulliSource", BernoulliSource, "bias", -0.5, 0.5),
    ("cli bounds", lambda v: _cmd_bounds(SimpleNamespace(eps_bar=v,
                                                         key_len=8)),
     "--eps-bar", 0, 1),
]


@pytest.mark.parametrize("call, name, lo, hi", [s[1:] for s in SITES],
                         ids=[s[0] for s in SITES])
@pytest.mark.parametrize("where", ["nan", "inf", "-inf", "lo", "hi", "huge",
                                   "numpy", "complex"])
def test_outside_the_closed_interval(call, name, lo, hi, where):
    value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "lo": lo - 1e-9, "hi": hi + 1e-9, "huge": 10**5000,
             "numpy": np.float64(hi + 1),
             "complex": np.complex128((lo + hi) / 2)}[where]
    shown = "an integer of 16610 bits" if where == "huge" else value
    message = f"{name} must be in [{lo}, {hi}], got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
