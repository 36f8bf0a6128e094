"""Per-student metrics over a set of question responses.

Each function is pure and works on any subset of the questionnaire
(the whole thing, one subject or one topic), so the same code serves
overall scores and per-subject drill-downs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .domain_model import CORRECT_WEIGHT, QuestionnaireSpec
from .errors import DomainError, check_int, check_range, shown
from .session_derivation import AnswerSequence, QuestionResponse

SubsetLike = Union["QuestionSubset", Iterable[int]]


@dataclass(frozen=True)
class QuestionSubset:
    """A non-empty ordered set of question ids."""

    question_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "question_ids", tuple(self.question_ids))
        if not self.question_ids:
            raise DomainError("question subset must not be empty")
        for qid in self.question_ids:
            check_int("question_id", qid, 1)
        if len(set(self.question_ids)) != len(self.question_ids):
            raise DomainError("question subset contains duplicate ids")

    def __iter__(self):
        return iter(self.question_ids)

    def __len__(self) -> int:
        return len(self.question_ids)

    @classmethod
    def of(cls, subset: SubsetLike) -> "QuestionSubset":
        if isinstance(subset, cls):
            return subset
        return cls(tuple(subset))

    @classmethod
    def whole(cls, spec: QuestionnaireSpec) -> "QuestionSubset":
        return cls(tuple(q.question_id for q in spec.questions))

    @classmethod
    def for_subject(cls, spec: QuestionnaireSpec, subject: str) -> "QuestionSubset":
        ids = tuple(q.question_id for q in spec.questions if q.subject == subject)
        if not ids:
            raise DomainError(f"no questions tagged with subject {subject!r}")
        return cls(ids)

    @classmethod
    def for_topic(cls, spec: QuestionnaireSpec, topic_id: int) -> "QuestionSubset":
        ids = tuple(q.question_id for q in spec.questions if topic_id in q.topic_ids)
        if not ids:
            raise DomainError(f"no questions tagged with topic {shown(topic_id)}")
        return cls(ids)


def subject_subsets(spec: QuestionnaireSpec) -> dict[str, QuestionSubset]:
    """One subset per subject, in order of first appearance."""
    return {s: QuestionSubset.for_subject(spec, s) for s in spec.subjects()}


def topic_subsets(spec: QuestionnaireSpec) -> dict[int, QuestionSubset]:
    """One subset per topic id, ascending."""
    return {t: QuestionSubset.for_topic(spec, t) for t in spec.topics()}


def _gather(
    responses: Mapping[int, QuestionResponse],
    spec: QuestionnaireSpec | None,
    subset: SubsetLike,
) -> list[QuestionResponse]:
    picked = []
    for qid in QuestionSubset.of(subset):
        if spec is not None and qid > spec.question_count:  # each id is at least 1
            raise DomainError(f"question {shown(qid)} is not in the spec")
        if qid not in responses:
            raise DomainError(f"no response derived for question {shown(qid)}")
        picked.append(responses[qid])
    return picked


def subset_scores(weights: Sequence[int], total_markings: int) -> tuple[float, float, float]:
    """(ts, ws, ad) of a subset from its final-answer weights, 0 for an unanswered
    question, and its marking total; unchecked. Only a correct answer weighs 4."""
    count, hits = len(weights), weights.count(CORRECT_WEIGHT)
    ad = hits / total_markings if total_markings else 0.0
    return 10.0 * hits / count, 10.0 * sum(weights) / (4 * count), ad


def _scores(
    responses: Mapping[int, QuestionResponse], spec: QuestionnaireSpec, subset: SubsetLike
) -> tuple[float, float, float]:
    picked = _gather(responses, spec, subset)
    return subset_scores([r.final_weight for r in picked], sum(r.markings for r in picked))


def traditional_score(
    responses: Mapping[int, QuestionResponse],
    spec: QuestionnaireSpec,
    subset: SubsetLike,
) -> float:
    """10 times the fraction of correct final answers; unanswered counts as wrong."""
    return _scores(responses, spec, subset)[0]


def error_rate(ts: float) -> float:
    """Complement of the traditional score, on the [0, 1] scale."""
    check_range("ts", ts, 0, 10)
    return 1.0 - ts / 10.0


def weighted_score(
    responses: Mapping[int, QuestionResponse],
    spec: QuestionnaireSpec,
    subset: SubsetLike,
) -> float:
    """Partial-credit score: 10 times the weight sum over the maximum weight sum.

    Each final answer contributes its option weight (0-4); unanswered
    questions contribute 0. The denominator is 4 per question, so the
    result lies in [0, 10].
    """
    return _scores(responses, spec, subset)[1]


def question_doubt(response: QuestionResponse) -> int:
    """Markings minus one: answer changes; -1 flags an unanswered question."""
    return response.markings - 1


def assurance_degree(
    responses: Mapping[int, QuestionResponse],
    spec: QuestionnaireSpec,
    subset: SubsetLike,
) -> float:
    """Correct final answers divided by total markings; 0 when nothing was marked.

    A student who marks a lot but lands few correct answers shows low
    assurance; never changing a correct pick gives 1.
    """
    return _scores(responses, spec, subset)[2]


def student_response_time(
    responses: Mapping[int, QuestionResponse],
    subset: SubsetLike,
) -> float:
    """Accumulated seconds attributed to the subset's questions."""
    picked = _gather(responses, None, subset)
    return math.fsum(r.srt_s for r in picked)


def level_of_disorder(sequence: AnswerSequence) -> float:
    """Binary Shannon entropy of in-order vs out-of-order answer transitions.

    Consecutive answer pairs are in order when the question id does not
    decrease. All-in-order (or all-out-of-order) sequences give 0; an
    even split gives 1. Sequences shorter than two answers have no
    transitions and give 0.
    """
    ids = sequence.question_ids
    if len(ids) < 2:
        return 0.0
    in_order = sum(1 for a, b in zip(ids, ids[1:]) if a <= b)
    return transition_entropy(in_order, len(ids) - 1 - in_order)


def transition_entropy(in_order: int, out_of_order: int) -> float:
    """Binary Shannon entropy of the two transition counts; 0 when either is 0."""
    if in_order == 0 or out_of_order == 0:
        return 0.0
    total = in_order + out_of_order
    p1 = in_order / total
    p2 = out_of_order / total
    return -(p1 * math.log2(p1) + p2 * math.log2(p2))
