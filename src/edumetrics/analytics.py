"""Class-level analyses: grouping, approval split, quadrants, priorities,
time-vs-expected and disorder summaries.

All aggregations consume immutable per-student results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .composite_metrics import p
from .domain_model import QuestionnaireSpec
from .errors import DomainError, check_range, check_ranges
from .isolated_metrics import QuestionSubset, SubsetLike, level_of_disorder
from .session_derivation import AnswerSequence, QuestionResponse

ScorePair = tuple[float, float]


@dataclass(frozen=True)
class GroupingScheme:
    """Equal-width bins over [0, 1]; the group count is the rounded square
    root of the class size."""

    k: int
    h: float
    bounds: tuple[tuple[float, float], ...]


class QuadrantLabel(Enum):
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"


@dataclass(frozen=True)
class PriorityRanking:
    element: str | int
    normalized_priority: float
    rank: int


@dataclass(frozen=True)
class SrtComparison:
    """Class mean response time of one question against its expected time."""

    question_id: int
    mean_srt_s: float
    expected_time_s: float
    within_expected: bool


def build_grouping(student_count: int) -> GroupingScheme:
    """Bins for ``round(sqrt(student_count))`` groups (half-up, minimum 1).

    Floors are closed, ceilings open, except the last group which also
    contains 1.0.
    """
    if isinstance(student_count, bool) or not isinstance(student_count, int) or student_count < 1:
        raise DomainError(f"student count must be a positive integer, got {student_count!r}")
    k = max(1, math.floor(math.sqrt(student_count) + 0.5))
    bounds = tuple((i / k, (i + 1) / k) for i in range(k))
    return GroupingScheme(k=k, h=1.0 / k, bounds=bounds)


def assign_group(value: float, scheme: GroupingScheme) -> int:
    """1-based group whose [floor, ceiling) holds the value; 1.0 joins group k."""
    check_range("value", value, 0, 1)
    for index, (_, ceiling) in enumerate(scheme.bounds):
        if value < ceiling:
            return index + 1
    return scheme.k


def approval_split(values: Sequence[float], threshold: float) -> tuple[int, int]:
    """Counts (at or above threshold, below threshold)."""
    check_range("threshold", threshold, 0, 1)
    check_ranges("values", values, 0, 1)
    at_or_above = sum(value >= threshold for value in values)
    return at_or_above, len(values) - at_or_above


def classify_quadrant(ad: float, qucl: float, threshold: float = 0.5) -> QuadrantLabel:
    """Quadrant of the (assurance, comprehension) plane split at the threshold.

    Q1 is at-or-above on both axes, Q2 high comprehension only, Q3 low
    on both, Q4 high assurance only.
    """
    check_range("ad", ad, 0, 1)
    check_range("qucl", qucl, 0, 1)
    check_range("threshold", threshold, 0, 1)
    high_ad = ad >= threshold
    high_qucl = qucl >= threshold
    if high_ad and high_qucl:
        return QuadrantLabel.Q1
    if high_qucl:
        return QuadrantLabel.Q2
    if not high_ad:
        return QuadrantLabel.Q3
    return QuadrantLabel.Q4


def rank_priorities(
    per_element_ts_ws: Mapping[str | int, Sequence[ScorePair]],
) -> list[PriorityRanking]:
    """Rank elements (subjects or topics) by normalized priority, descending.

    Each mapping value is a sequence of (ts, ws) pairs whose priorities are
    averaged: one student's pair ranks that student's elements, one pair per
    student ranks the class's. Priorities are normalized to [0, 1]; ties
    break on ascending element id. Elements with no pairs are dropped with a
    warning.
    """
    scored = {}
    for element, pairs in per_element_ts_ws.items():
        if not pairs:
            # Imported here: no class report drops an element, so compute never loads logging.
            import logging

            logging.getLogger(__name__).warning(
                "element %r has no scores and was excluded from the ranking", element
            )
            continue
        ts, ws = zip(*pairs)
        check_ranges("ts", ts, 0, 10)
        check_ranges("ws", ws, 0, 10)
        scored[element] = math.fsum(map(p, ts, ws)) / len(pairs) / 10.0
    return rank_normalized(scored)


def rank_normalized(priorities: Mapping[str | int, float]) -> list[PriorityRanking]:
    """Rank known normalized priorities as :func:`rank_priorities` does, unchecked."""
    order = sorted(priorities.items(), key=lambda item: (-item[1], item[0]))
    return [PriorityRanking(element, np, rank) for rank, (element, np) in enumerate(order, start=1)]


def srt_vs_expected(
    responses_per_student: Sequence[Mapping[int, QuestionResponse]],
    spec: QuestionnaireSpec,
    subset: SubsetLike,
) -> list[SrtComparison]:
    """Class mean response time per question, flagged when it stays within
    the expected time (boundary counts as within).

    Only the ``.srt_s`` of each per-question value is read, so per-question
    report rows serve as well as responses.
    """
    if not responses_per_student:
        raise DomainError("need at least one student")
    rows = []
    for qid in QuestionSubset.of(subset):
        expected = spec.question(qid).expected_time_s
        mean = math.fsum(r[qid].srt_s for r in responses_per_student) / len(responses_per_student)
        rows.append(SrtComparison(qid, mean, expected, mean <= expected))
    return rows


def disorder_summary(
    sequences: Sequence[AnswerSequence],
    question_ids: Iterable[int] | None = None,
) -> tuple[float, float]:
    """(mean disorder, fraction of students with positive disorder).

    When ``question_ids`` is given each sequence is first restricted to
    those questions, order preserved, so the statistic covers one
    subject or topic.
    """
    if not sequences:
        raise DomainError("need at least one student")
    if question_ids is not None:
        keep = tuple(question_ids)
        sequences = [s.restricted_to(keep) for s in sequences]
    disorders = [level_of_disorder(s) for s in sequences]
    average = math.fsum(disorders) / len(disorders)
    positive = sum(1 for d in disorders if d > 0) / len(disorders)
    return average, positive
