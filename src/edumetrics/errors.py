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


def check_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise ``DomainError`` unless ``value`` lies in [lo, hi]. The bounds lie in [-FLOAT_MAX,
    FLOAT_MAX], so no infinity, NaN or int too large for a float is accepted."""
    if not lo <= value <= hi:
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {value}")


def check_ranges(name: str, values: Sequence[float], lo: float, hi: float) -> None:
    """:func:`check_range` of each value; ``min([0.5, nan])`` is 0.5, hence ``isnan``."""
    if values and not lo <= min(values) <= max(values) <= hi or any(map(math.isnan, values)):
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
            context.append(f"question_id={question_id}")
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
