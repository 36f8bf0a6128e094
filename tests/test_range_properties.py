"""Property test: each exported function that takes a float raises
``DomainError`` or returns only finite numbers, with NaN and both
infinities among the drawn inputs."""

import dataclasses
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from edumetrics import DomainError
from test_raise_sites import FLOAT_INPUTS, valid_arguments

# Any float, NaN and infinities included, or one inside every finite range.
FLOATS = st.floats() | st.floats(min_value=0, max_value=1)


def drawn(value, draw):
    """``value`` with each number in it drawn afresh."""
    if isinstance(value, (int, float)):
        return draw(FLOATS)
    if isinstance(value, dict):
        return {key: drawn(item, draw) for key, item in value.items()}
    return type(value)(drawn(item, draw) for item in value)


def numbers(result):
    """Every float in a result, however nested."""
    if isinstance(result, float):
        yield result
    elif dataclasses.is_dataclass(result):
        yield from numbers(dataclasses.astuple(result))
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from numbers(item)


@pytest.mark.parametrize("function", FLOAT_INPUTS, ids=lambda function: function.__name__)
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_result_is_finite_or_domain_error(function, data):
    arguments = valid_arguments(function)
    for name in FLOAT_INPUTS[function][1]:
        arguments[name] = drawn(arguments[name], data.draw)
    try:
        result = function(**arguments)
    except DomainError:
        return
    assert all(map(math.isfinite, numbers(result))), result
