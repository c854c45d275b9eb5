"""A hypothesis walk over every numeric flag of the CLI.

Each example puts one drawn value into an otherwise valid argv and runs
``cli.main`` in-process with machine output.  The values are the ones a
float or integer parser turns into edge cases (NaN, both infinities,
``1e400``, ``-0.0``, the least subnormal, the largest float, ``2**53 + 1``,
400-digit integers) and the values just inside and just outside the
flag's own range.  Whatever the value:

- the exit code is 0, 2 or 3, and 3 (no solution) only for ``rate``;
- exit 2 leaves stdout empty and one ``error:`` line on stderr, and a
  value no finite float holds always gives exit 2;
- a value just outside the flag's range gives exit 2;
- exit 0 prints JSON without a ``NaN`` or ``Infinity`` token.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from keysec.cli import main

INPUTS = Path(__file__).parent / "golden" / "inputs"
MAX = sys.float_info.max

BASE = {
    "bounds": ["bounds", "--eps-bar", "1e-6", "--key-len", "64"],
    "rate": ["rate", "--s-target", "1e-14", "--n", "10000000", "--q",
             "0.1007", "--mu", "0", "--leak-ec", "1e5", "--p-fail", "1e-10",
             "--eps-cor", "1e-15"],
    "detect": ["detect", "--rho", str(INPUTS / "rho.mat"), "--sigma",
               str(INPUTS / "sigma.mat"), "--prior1", "0.5"],
    "attack": ["attack", "--mode", "hash", "--key", "1011", "--seed",
               "011010", "--out-len", "3"],
    "bernoulli": ["rngtest", "--model", "bernoulli", "--bias", "0.1",
                  "--block-len", "4", "--count", "100", "--seed", "1"],
    "markov": ["rngtest", "--model", "markov", "--p01", "0.3", "--p11",
               "0.6", "--p-init1", "0.5", "--block-len", "4", "--count",
               "100", "--seed", "1"],
}
# (argv, flag, parser, lo, hi, ends): the range a value of the flag must
# be in, given the rest of its argv; None is an end not walked
RNG_INTS = [("--block-len", 1, 16), ("--count", 1, None),
            ("--seed", 0, 2**64 - 1)]
FLAGS = [
    ("bounds", "--eps-bar", float, 0, 1, "[]"),
    ("bounds", "--key-len", int, 1, 2**53, "[]"),
    ("rate", "--s-target", float, 0, math.inf, "()"),
    ("rate", "--n", int, 1, 2**53, "[]"),
    ("rate", "--q", float, 0, 1, "[]"),
    ("rate", "--mu", float, 0, 1, "[]"),
    ("rate", "--leak-ec", float, 0, math.inf, "[)"),
    ("rate", "--p-fail", float, 0, 1, "(]"),
    ("rate", "--eps-cor", float, 0, 1, "(]"),
    ("detect", "--prior1", float, 0, 1, "[]"),
    ("attack", "--out-len", int, 3, 3, "[]"),  # the seed has 4 + 3 - 1 bits
    ("bernoulli", "--bias", float, -0.5, 0.5, "[]"),
    *[("markov", flag, float, 0, 1, "[]")
      for flag in ("--p01", "--p11", "--p-init1")],
    *[(argv, flag, int, lo, hi, "[]") for argv in ("bernoulli", "markov")
      for flag, lo, hi in RNG_INTS],
]
EDGE_CASES = ["nan", "inf", "-inf", "1e400", "-1e400", "-0.0", "5e-324",
              repr(MAX), str(2**53 + 1), "9" * 400, "-" + "9" * 400]
COUNT_CAP = 10**3  # larger counts are valid, and would sample that many


def _outside(parser, lo, hi, ends):
    # the values just outside each finite end of the range
    if parser is int:
        return [str(lo - 1)] + ([] if hi is None else [str(hi + 1)])
    below = lo if ends[0] == "(" else math.nextafter(lo, -math.inf)
    above = hi if ends[1] == ")" else math.nextafter(hi, math.inf)
    return [repr(v) for v in (below, above) if math.isfinite(v)]


def _inside(parser, lo, hi, ends):
    if parser is int:
        return [str(lo)] + ([] if hi is None else [str(hi)])
    least = math.nextafter(lo, hi) if ends[0] == "(" else lo
    most = math.nextafter(hi, lo) if ends[1] == ")" else hi
    return [repr(v) for v in (least, most)]


def _drawn(flag, text):
    # --count is held to COUNT_CAP, so no example samples more blocks
    try:
        return flag != "--count" or int(text) <= COUNT_CAP
    except ValueError:
        return True


@st.composite
def cases(draw):
    argv, flag, parser, lo, hi, ends = draw(st.sampled_from(FLAGS))
    outside = _outside(parser, lo, hi, ends)
    text = draw(st.sampled_from(
        [t for t in EDGE_CASES + outside + _inside(parser, lo, hi, ends)
         if _drawn(flag, t)]))
    args = list(BASE[argv])
    args[args.index(flag) + 1] = text
    return args, text, text in outside


def _refuse_constant(token):
    raise AssertionError(f"machine output holds {token}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["--format", "machine", *argv])
        except SystemExit as exc:  # argparse refused the text
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(cases())
def test_numeric_flag_walk(case):
    argv, text, outside = case
    code, out, err = _run(argv)
    assert code in ((0, 2, 3) if argv[0] == "rate" else (0, 2)), err
    if outside or not math.isfinite(float(text)):
        assert code == 2, (argv, out)
    if code == 2:
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [
            err.splitlines()[-1]], err
    elif code == 0:
        json.loads(out, parse_constant=_refuse_constant)
