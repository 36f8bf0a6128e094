"""Class-level analyses: grouping, approval split, quadrants, priorities,
time-vs-expected and disorder summaries.

All aggregations consume immutable per-student results.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .composite_metrics import priority
from .domain_model import QuestionnaireSpec
from .errors import DomainError
from .isolated_metrics import QuestionSubset, SubsetLike, level_of_disorder
from .session_derivation import AnswerSequence, QuestionResponse

logger = logging.getLogger(__name__)

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


class Scope(Enum):
    STUDENT = "student"
    CLASS = "class"


@dataclass(frozen=True)
class PriorityRanking:
    scope: Scope
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
    if student_count < 1:
        raise DomainError("student count must be positive")
    k = max(1, math.floor(math.sqrt(student_count) + 0.5))
    bounds = tuple((i / k, (i + 1) / k) for i in range(k))
    return GroupingScheme(k=k, h=1.0 / k, bounds=bounds)


def assign_group(value: float, scheme: GroupingScheme) -> int:
    """1-based group whose [floor, ceiling) holds the value; 1.0 joins group k."""
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"value must lie in [0, 1], got {value}")
    for index, (_, ceiling) in enumerate(scheme.bounds):
        if value < ceiling:
            return index + 1
    return scheme.k


def approval_split(values: Iterable[float], threshold: float) -> tuple[int, int]:
    """Counts (at or above threshold, below threshold)."""
    if not 0.0 <= threshold <= 1.0:
        raise DomainError(f"threshold must lie in [0, 1], got {threshold}")
    at_or_above = below = 0
    for value in values:
        if value >= threshold:
            at_or_above += 1
        else:
            below += 1
    return at_or_above, below


def classify_quadrant(ad: float, qucl: float, threshold: float = 0.5) -> QuadrantLabel:
    """Quadrant of the (assurance, comprehension) plane split at the threshold.

    Q1 is at-or-above on both axes, Q2 high comprehension only, Q3 low
    on both, Q4 high assurance only.
    """
    if not 0.0 <= ad <= 1.0 or not 0.0 <= qucl <= 1.0:
        raise DomainError("quadrant inputs must lie in [0, 1]")
    high_ad = ad >= threshold
    high_qucl = qucl >= threshold
    if high_ad and high_qucl:
        return QuadrantLabel.Q1
    if high_qucl:
        return QuadrantLabel.Q2
    if not high_ad:
        return QuadrantLabel.Q3
    return QuadrantLabel.Q4


def _score_pairs(value) -> list[ScorePair]:
    if (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
    ):
        return [(float(value[0]), float(value[1]))]
    return [(float(ts), float(ws)) for ts, ws in value]


def rank_priorities(
    per_element_ts_ws: Mapping[str | int, object],
    scope: Scope = Scope.STUDENT,
) -> list[PriorityRanking]:
    """Rank elements (subjects or topics) by normalized priority, descending.

    Each mapping value is one (ts, ws) pair, or an iterable of
    per-student pairs whose priorities are averaged first (class
    scope). Priorities are normalized to [0, 1]; ties break on
    ascending element id. Elements without any scores are dropped with
    a warning.
    """
    scored = []
    for element, value in per_element_ts_ws.items():
        pairs = _score_pairs(value) if value is not None else []
        if not pairs:
            logger.warning("element %r has no scores and was excluded from the ranking", element)
            continue
        mean_priority = sum(priority(ts, ws) for ts, ws in pairs) / len(pairs)
        scored.append((element, mean_priority / 10.0))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [
        PriorityRanking(scope=scope, element=element, normalized_priority=np, rank=rank)
        for rank, (element, np) in enumerate(scored, start=1)
    ]


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
        mean = sum(r[qid].srt_s for r in responses_per_student) / len(responses_per_student)
        rows.append(
            SrtComparison(
                question_id=qid,
                mean_srt_s=mean,
                expected_time_s=expected,
                within_expected=mean <= expected,
            )
        )
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
    average = sum(disorders) / len(disorders)
    positive = sum(1 for d in disorders if d > 0) / len(disorders)
    return average, positive
