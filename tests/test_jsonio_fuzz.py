"""Fuzzing the JSON, rational and witness readers: whatever the input, the
result is a value or a SchemaError, never another exception, except that
a function's arity past the cap raises `check_arity`'s ArityTooLargeError."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exact1q.core import MAX_ARITY, PartialBooleanFn
from exact1q.errors import ArityTooLargeError, SchemaError
from exact1q.feasibility import WeightVector
from exact1q.jsonio import function_from_dict, parse_rational, witness_from_dict

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
_bitstrings = st.text(alphabet="01", max_size=5) | st.text(max_size=5)
_masks = st.lists(_bitstrings, max_size=6) | _json
_functions = st.fixed_dictionaries(
    {
        "n": st.integers(-3, 30) | st.booleans() | st.floats() | st.text(max_size=3) | st.none(),
        "ones": _masks,
        "zeros": _masks,
    }
)
_weight = st.fractions(min_value=-1, max_value=2, max_denominator=12).map(str) | _json
_witnesses = st.fixed_dictionaries(
    {"z": st.lists(_weight, max_size=5) | _json}, optional={"z0": _weight}
)
_literals = (
    st.text()
    | st.from_regex(r"-?\d{1,6}(/\d{1,6})?", fullmatch=True)
    | st.from_regex(r"\s*-?[0-9]{1,3}/0+\s*", fullmatch=True)
    | st.integers()
    | st.none()
    | st.floats()
)


def _value_or_schema_error(fn, arg):
    try:
        return fn(arg)
    except SchemaError:
        return None


@settings(max_examples=300, deadline=None)
@given(_literals)
def test_parse_rational_value_or_schema_error(text):
    value = _value_or_schema_error(parse_rational, text)
    assert value is None or isinstance(value, Fraction)


@settings(max_examples=300, deadline=None)
@given(_functions | _json)
def test_function_from_dict_value_or_schema_error(data):
    try:
        value = _value_or_schema_error(function_from_dict, data)
    except ArityTooLargeError:
        # the arity is read by `check_arity`, whose cap error is its own
        assert type(data["n"]) is int and data["n"] > MAX_ARITY
        return
    assert value is None or isinstance(value, PartialBooleanFn)


@settings(max_examples=300, deadline=None)
@given(_witnesses | _json)
def test_witness_from_dict_value_or_schema_error(data):
    value = _value_or_schema_error(witness_from_dict, data)
    assert value is None or isinstance(value, WeightVector)
