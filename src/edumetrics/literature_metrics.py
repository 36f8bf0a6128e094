"""Established assessment metrics: level of understanding, learning rate,
difficulty level."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

from .domain_model import DIFFICULTY_INDICES, FAST_FRACTION, LU_DEVIATIONS
from .errors import FLOAT_MAX, DomainError, check_ranges, check_times


class ResponseTimeClass(IntEnum):
    """Answer-speed class; the value divides the understanding product."""

    BLIND_GUESS = 5
    NORMAL = 1


@dataclass(frozen=True)
class LuInputs:
    """Difficulty indices, deviation and speed class for one answer."""

    tdi: int
    cdi: int
    qdi: int
    deviation: int
    response_time_class: ResponseTimeClass

    def __post_init__(self) -> None:
        for name in ("tdi", "cdi", "qdi"):
            if getattr(self, name) not in DIFFICULTY_INDICES:
                raise DomainError(f"{name} must be one of {DIFFICULTY_INDICES}")
        if self.deviation not in LU_DEVIATIONS:
            raise DomainError(f"deviation must be one of {LU_DEVIATIONS}")


@dataclass(frozen=True)
class ScoreSeries:
    """Scores of one student on one element across consecutive assessments."""

    student_id: str
    element_id: str
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", tuple(self.scores))
        check_ranges("scores", self.scores, 0, 10)


def level_of_understanding(inp: LuInputs) -> float:
    """Product of the three difficulty indices and the deviation, divided by
    the response-time class value (5 for blind guesses, 1 for normal answers)."""
    return (inp.tdi * inp.cdi * inp.qdi * inp.deviation) / float(inp.response_time_class)


def classify_response_time(srt_s: float, expected_time_s: float) -> ResponseTimeClass:
    """BLIND_GUESS when the answer took at most ``FAST_FRACTION`` of the
    expected time (boundary included), NORMAL otherwise."""
    check_times(srt_s, expected_time_s)
    if srt_s <= expected_time_s * FAST_FRACTION:
        return ResponseTimeClass.BLIND_GUESS
    return ResponseTimeClass.NORMAL


def student_learning_rate(series: ScoreSeries) -> float:
    """Signed-square mean increase across consecutive assessments.

    Each step contributes (next - prev) * |next - prev|, so gains and
    losses keep their sign but large jumps weigh quadratically; the sum
    is divided by the assessment count minus one.
    """
    if len(series.scores) < 2:
        raise DomainError("learning rate needs at least two scores")
    steps = math.fsum(
        (b - a) * abs(b - a) for a, b in zip(series.scores, series.scores[1:])
    )
    return steps / (len(series.scores) - 1)


def difficulty_level(slrs: Sequence[float]) -> float:
    """Mean learning rate over all students of one element: the same float
    as ``statistics.fmean(slrs)``. Each rate lies within
    ``FLOAT_MAX / len(slrs)`` of 0, so that their sum cannot overflow."""
    if not slrs:
        raise DomainError("difficulty level needs at least one learning rate")
    check_ranges("slrs", slrs, -FLOAT_MAX / len(slrs), FLOAT_MAX / len(slrs))
    return math.fsum(slrs) / len(slrs)
