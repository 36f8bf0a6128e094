"""Exception types shared across the engine."""

from __future__ import annotations

import math
import sys
from typing import Sequence


class EduMetricsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EduMetricsError):
    """An operation was called with values outside its domain."""


FLOAT_MAX = sys.float_info.max


def is_int(value: object) -> bool:
    """An int, not a bool: ``True == 1``, but no count, id or index is a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def shown(value: object) -> str:
    """A value as a message shows it: its repr, or an int too long to print by its size."""
    try:
        return repr(value)
    except ValueError:  # past the interpreter's int() digit cap, which stays as it is
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def check_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise ``DomainError`` unless ``value`` lies in [lo, hi] and is not a bool. The bounds lie
    in [-FLOAT_MAX, FLOAT_MAX], so no infinity, NaN or int too large for a float is accepted."""
    if not lo <= value <= hi or type(value) is bool:
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {shown(value)}")


def check_int(
    name: str, value: int, lo: int | None = None, hi: int | None = None, *, one_of: tuple = (),
) -> None:
    """Raise ``DomainError`` unless ``value`` is an int, not a bool, that is one of
    ``one_of`` or, without it, lies in [lo, hi], where a bound of None is open."""
    if one_of:
        if not (is_int(value) and value in one_of):
            raise DomainError(f"{name} must be one of {one_of}, got {shown(value)}")
    elif not is_int(value) or lo is not None and value < lo or hi is not None and value > hi:
        lo_end = "(-inf" if lo is None else f"[{shown(lo)}"
        hi_end = "inf)" if hi is None else f"{shown(hi)}]"
        raise DomainError(f"{name} must be an integer in {lo_end}, {hi_end}, got {shown(value)}")


def check_ranges(name: str, values: Sequence[float], lo: float, hi: float) -> None:
    """:func:`check_range` of each value."""
    for value in values:
        check_range(name, value, lo, hi)


def check_times(srt_s: float, expected_time_s: float) -> None:
    """Both times are finite, the response time >= 0 and the expected time > 0,
    which for an int or float is >= ``math.ulp(0.0)``, the smallest positive float."""
    check_range("srt_s", srt_s, 0, FLOAT_MAX)
    check_range("expected_time_s", expected_time_s, math.ulp(0.0), FLOAT_MAX)


class ParseError(EduMetricsError):
    """Input text is syntactically malformed."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        self.reason = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)

    def locate(self, *, line: int | None = None) -> "ParseError":
        """Return a copy with the line filled in where missing."""
        line = self.line if self.line is not None else line
        return ParseError(self.reason, line=line, column=self.column)


class ValidationError(EduMetricsError):
    """Well-formed input violates an invariant of the data model.

    ``field`` names the offending field; ``question_id`` and ``line``
    locate it when known.
    """

    def __init__(
        self,
        message: str,
        *,
        field: str | None = None,
        question_id: int | None = None,
        line: int | None = None,
    ):
        self.reason = message
        self.field = field
        self.question_id = question_id
        self.line = line
        context = []
        if field is not None:
            context.append(f"field={field}")
        if question_id is not None:
            context.append(f"question_id={shown(question_id)}")
        if line is not None:
            context.append(f"line={line}")
        suffix = f" ({', '.join(context)})" if context else ""
        super().__init__(message + suffix)

    def locate(self, *, question_id: int | None = None, line: int | None = None) -> "ValidationError":
        """Return a copy with the question id and line filled in where missing."""
        return ValidationError(
            self.reason,
            field=self.field,
            question_id=self.question_id if self.question_id is not None else question_id,
            line=self.line if self.line is not None else line,
        )


class SimulationError(EduMetricsError):
    """A behavior profile cannot be scheduled on the given questionnaire."""
