"""Property test: ``difficulty_level`` is the mean that ``statistics.fmean``
computes, on generated lists of learning rates."""

import statistics

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from edumetrics import difficulty_level


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=30))
def test_difficulty_level_equals_statistics_fmean(slrs):
    assert difficulty_level(slrs) == statistics.fmean(slrs)
