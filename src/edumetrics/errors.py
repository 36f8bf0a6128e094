"""Exception types shared across the engine."""

from __future__ import annotations


class EduMetricsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EduMetricsError):
    """An operation was called with values outside its domain."""


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
