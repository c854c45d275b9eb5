"""Every public constructor refuses a value no real float holds with ValueError.

Each site embeds one value in an otherwise valid argument.  An integer past
the float range of either sign, NaN, both infinities, the valid value made
complex (such as ``0.25 + 0j``, which a silent cast would accept) and the
valid value as text or bytes (``"0.25"``, which numpy would parse) raise
ValueError wherever they are invalid, never OverflowError, TypeError or a
cast with only a warning, since the suite turns warnings into errors.
"""

import math
from fractions import Fraction

import numpy as np

import pytest

from keysec import (ConditionalChannel, DensityMatrix, Distribution,
                    FiniteKeyParams, JointDistribution, LogProb, Povm,
                    SampleSet)

# (id, call taking the value, a valid value, kinds for which it is valid)
SITES = [
    ("Distribution", lambda v: Distribution(1, [v, 0.75]), 0.25, ()),
    ("JointDistribution",
     lambda v: JointDistribution(1, 1, [[v, 0.25], [0.25, 0.25]]), 0.25, ()),
    ("ConditionalChannel",
     lambda v: ConditionalChannel(1, 1, [[0.5, 0.5], [v, 0.75]]), 0.25, ()),
    ("SampleSet", lambda v: SampleSet(4, [0, v]), 3, ()),
    ("FiniteKeyParams.q", lambda v: FiniteKeyParams(n=10, q=v), 0.1, ()),
    ("FiniteKeyParams.mu", lambda v: FiniteKeyParams(n=10, q=0.1, mu=v),
     0.0, ()),
    ("FiniteKeyParams.leak_ec",
     lambda v: FiniteKeyParams(n=10, q=0.1, leak_ec=v), 5.0, ()),
    ("FiniteKeyParams.p_fail",
     lambda v: FiniteKeyParams(n=10, q=0.1, p_fail=v), 1e-10, ()),
    ("FiniteKeyParams.eps_cor",
     lambda v: FiniteKeyParams(n=10, q=0.1, eps_cor=v), 1e-15, ()),
    ("LogProb", LogProb, -1.0, ("-inf",)),
    ("DensityMatrix", lambda v: DensityMatrix([[v, 0], [0, 0.5]]), 0.5,
     ("complex",)),
    ("DensityMatrix.pure", lambda v: DensityMatrix.pure([v, 1.0]), 1.0,
     ("complex",)),
    ("DensityMatrix.diagonal", lambda v: DensityMatrix.diagonal([v, 0.5]),
     0.5, ()),
    ("DensityMatrix.from_bloch",
     lambda v: DensityMatrix.from_bloch(v, 0.0, 0.0), 0.5, ()),
    ("Povm", lambda v: Povm([[[v, 0], [0, 0]], [[0.5, 0], [0, 1]]]), 0.5,
     ("complex",)),
]
KINDS = ["huge", "-huge", "nan", "inf", "-inf", "complex", "text", "bytes"]


def _value(kind, valid):
    return {"huge": 10**5000, "-huge": -10**5000, "nan": math.nan,
            "inf": math.inf, "-inf": -math.inf, "complex": complex(valid),
            "text": str(valid), "bytes": str(valid).encode()}[kind]


@pytest.mark.parametrize("call, valid", [s[1:3] for s in SITES],
                         ids=[s[0] for s in SITES])
def test_valid_value_accepted(call, valid):
    call(valid)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("call, valid, valid_kinds", [s[1:] for s in SITES],
                         ids=[s[0] for s in SITES])
def test_value_without_a_real_float_refused(call, valid, valid_kinds, kind):
    value = _value(kind, valid)
    if kind in valid_kinds:
        call(value)
    else:
        with pytest.raises(ValueError):
            call(value)


@pytest.mark.parametrize("masses", [[True, False],
                                    [Fraction(1, 4), Fraction(3, 4)]],
                         ids=["bool", "Fraction"])
def test_bool_and_object_masses_converted(masses):
    assert Distribution(1, masses).masses.tolist() == [float(m) for m in masses]


def test_integer_past_int64_converted():
    # an object array, converted; the sum refuses the mass, not the cast
    with pytest.raises(ValueError, match=r"^masses sum to 1e\+20, "):
        Distribution(1, [10**20, 0])
