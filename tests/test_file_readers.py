"""The file readers fail only with ValueError.

``keysec`` maps exactly this one to exit 2 (``cli._load``), so any other
exception a malformed document could raise would escape as a traceback.
Arbitrary JSON values go into every field the readers look at.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keysec.probdist import loads_distribution
from keysec.quantum_detect import loads_matrix, loads_povm

HUGE = 10 ** 400  # too large for a float

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([HUGE, -HUGE, 2 ** 64, -1, 0, 1, 2, 17, 21]),
    st.floats(), st.text(alphabet="01a.-", max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=12)
sizes = st.one_of(json_values, st.integers(-2, 3))
numbers = st.one_of(st.floats(), st.floats(0, 1), st.integers(-2, 2),
                    st.sampled_from([HUGE, 1.7976931348623157e308, -1e308]))
pair = st.lists(numbers, min_size=2, max_size=2)
entries = st.one_of(json_values, st.lists(
    st.lists(st.one_of(numbers, json_values), min_size=2, max_size=2),
    max_size=9))


def documents(**strategies):
    """JSON objects with every named field, or a random subset of them."""
    return st.one_of(st.fixed_dictionaries(strategies),
                     st.fixed_dictionaries({}, optional=strategies),
                     json_values)


def shaped(size_field, data_field, data):
    """A size from 0 to 3 and ``data(size)`` under ``data_field``."""
    return st.integers(0, 3).flatmap(lambda size: st.fixed_dictionaries(
        {size_field: st.just(size), data_field: data(size)}))


def exactly(n, item):
    return st.lists(item, min_size=n, max_size=n)


distribution_docs = st.one_of(
    shaped("outcome_bits", "masses", lambda b: exactly(1 << b, numbers)),
    documents(outcome_bits=sizes,
              masses=st.one_of(json_values, st.lists(numbers, max_size=4)),
              spike=documents(outcome=st.one_of(
                  json_values, st.text(alphabet="01", max_size=4)),
                  epsilon=numbers)))
matrix_docs = st.one_of(
    shaped("dim", "entries", lambda d: exactly(d * d, pair)),
    documents(dim=sizes, entries=entries))
povm_docs = st.one_of(
    shaped("dim", "elements",
           lambda d: st.lists(exactly(d * d, pair), min_size=1, max_size=3)),
    documents(dim=sizes,
              elements=st.one_of(json_values, st.lists(entries, max_size=3))))


def assert_only_value_errors(loader, doc):
    try:
        loader(json.dumps(doc))
    except ValueError:
        pass


@settings(max_examples=100, deadline=None)
@given(distribution_docs)
def test_distribution_reader(doc):
    assert_only_value_errors(loads_distribution, doc)


@settings(max_examples=100, deadline=None)
@given(matrix_docs)
def test_matrix_reader(doc):
    assert_only_value_errors(loads_matrix, doc)


@settings(max_examples=100, deadline=None)
@given(povm_docs)
def test_povm_reader(doc):
    assert_only_value_errors(loads_povm, doc)


# floats that overflow once summed or subtracted: refused before any
# arithmetic warns
@pytest.mark.parametrize("loader, text", [
    (loads_distribution, '{"outcome_bits": 1, "masses": [1.7e308, 1.7e308]}'),
    (loads_matrix, '{"dim": 2, "entries": '
                   '[[1e308, 0], [1.7e308, 0], [-1.7e308, 0], [0, 0]]}'),
    (loads_matrix, '{"dim": 1, "entries": [[1.7e308, 1e308]]}'),
    (loads_povm, '{"dim": 1, "elements": [[[1.7e308, 0]], [[1.7e308, 0]]]}'),
])
def test_huge_numbers_refused_without_overflow(loader, text):
    with pytest.raises(ValueError):
        loader(text)


DEEP = "[" * 5000 + "]" * 5000  # past the JSON decoder's recursion limit
READERS = {"distribution": (loads_distribution, "outcome_bits", "masses"),
           "matrix": (loads_matrix, "dim", "entries"),
           "POVM": (loads_povm, "dim", "elements")}


@pytest.mark.parametrize("kind", READERS)
def test_deep_nesting_refused(kind):
    loader, size, data = READERS[kind]
    with pytest.raises(ValueError, match="nested too deeply"):
        loader('{"%s": 1, "%s": %s}' % (size, data, DEEP))


@pytest.mark.parametrize("loader, text", [
    (loads_distribution, '{"outcome_bits": 1, "masses": [%d, 0]}' % HUGE),
    (loads_distribution, '{"outcome_bits": 0, "masses": [%d]}' % 2 ** 1024),
    (loads_matrix, '{"dim": 1, "entries": [[1, %d]]}' % -HUGE),
    (loads_povm, '{"dim": 1, "elements": [[[%d, 0]]]}' % HUGE),
], ids=["masses", "masses-just-past", "matrix", "POVM"])
def test_integers_past_the_float_range_refused(loader, text):
    with pytest.raises(ValueError, match="JSON numbers"):
        loader(text)


# json.loads alone keeps the last of two equal fields
@pytest.mark.parametrize("loader, text, field", [
    (loads_distribution, '{"outcome_bits": 1, "masses": [1, 0], '
                         '"masses": [0.5, 0.5]}', "masses"),
    (loads_distribution, '{"outcome_bits": 1, "spike": {"outcome": "1", '
                         '"epsilon": 0.9, "epsilon": 0.1}}', "epsilon"),
    (loads_matrix, '{"dim": 2, "dim": 1, "entries": [[1, 0]]}', "dim"),
    (loads_povm, '{"dim": 1, "elements": [[[0.5, 0]], [[0.5, 0]]], '
                 '"elements": [[[1, 0]]]}', "elements"),
], ids=["distribution", "spike", "matrix", "POVM"])
def test_repeated_field_refused(loader, text, field):
    with pytest.raises(ValueError, match=f"field '{field}' appears twice"):
        loader(text)
