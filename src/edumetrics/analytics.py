"""Class-level analyses: grouping, approval split, quadrants, priorities,
time-vs-expected and disorder summaries.

All aggregations consume immutable per-student results.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .composite_metrics import p
from .domain_model import QuestionSpec, QuestionnaireSpec
from .errors import DomainError, check_int, check_range, check_ranges
from .isolated_metrics import QuestionSubset, SubsetLike, _gather, level_of_disorder
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
    """Class mean response time of one question against its expected time. The
    fields are the keys of a class.json ``srt_vs_expected`` row, in its order."""

    question_id: int
    mean_srt_s: float
    expected_time_s: float
    within_expected: bool


def build_grouping(student_count: int) -> GroupingScheme:
    """Bins for ``round(sqrt(student_count))`` groups (half-up, minimum 1).

    Floors are closed, ceilings open, except the last group which also
    contains 1.0.
    """
    # 2**32 students make at most 65 536 groups; a count past the largest float overflows sqrt.
    check_int("student_count", student_count, 1, 2**32)
    k = max(1, math.floor(math.sqrt(student_count) + 0.5))
    bounds = tuple((i / k, (i + 1) / k) for i in range(k))
    return GroupingScheme(k=k, h=1.0 / k, bounds=bounds)


def assign_group(value: float, scheme: GroupingScheme) -> int:
    """1-based group whose [floor, ceiling) holds the value; 1.0 joins group k."""
    check_range("value", value, 0, 1)
    return min(bisect_right(scheme.bounds, value, key=itemgetter(1)) + 1, scheme.k)


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
        scored[element] = list(map(p, ts, ws))
    return rank_mean_priorities(scored)


def rank_mean_priorities(priorities: Mapping[str | int, Sequence[float]]) -> list[PriorityRanking]:
    """Rank by mean priority / 10, as :func:`rank_priorities` does; unchecked: none is empty."""
    scored = {element: math.fsum(ps) / len(ps) / 10.0 for element, ps in priorities.items()}
    order = sorted(scored.items(), key=lambda item: (-item[1], item[0]))
    return [PriorityRanking(element, np, rank) for rank, (element, np) in enumerate(order, start=1)]


def compare_srt(question: QuestionSpec, srts: Sequence[float]) -> SrtComparison:
    """One question's class mean response time against its expected time, within
    it when at or under it; unchecked: ``srts`` is non-empty."""
    mean, expected = math.fsum(srts) / len(srts), question.expected_time_s
    return SrtComparison(question.question_id, mean, expected, mean <= expected)


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
    subset = QuestionSubset.of(subset)
    columns = zip(*[_gather(responses, spec, subset) for responses in responses_per_student])
    return [compare_srt(spec.question(q), [r.srt_s for r in c]) for q, c in zip(subset, columns)]


def disorder_stats(disorders: Sequence[float]) -> tuple[float, float]:
    """(mean, share of positive values) of a non-empty column of disorders; unchecked."""
    return math.fsum(disorders) / len(disorders), sum(d > 0 for d in disorders) / len(disorders)


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
        keep = QuestionSubset.of(question_ids)
        sequences = [s.restricted_to(keep) for s in sequences]
    return disorder_stats([level_of_disorder(s) for s in sequences])
