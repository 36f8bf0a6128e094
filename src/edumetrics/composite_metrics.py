"""Metrics composed from the isolated ones: comprehension levels and priority."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .domain_model import (
    CORRECT_WEIGHT, DIFFICULTY_INDICES, FAST_FRACTION, WS_WEIGHTS, QuestionSpec, QuestionnaireSpec,
)
from .errors import DomainError, check_int, check_range, check_ranges, check_times, shown
from .isolated_metrics import QuestionSubset, SubsetLike, assurance_degree
from .session_derivation import QuestionResponse


@dataclass(frozen=True)
class ComprehensionInputs:
    """Everything the per-question comprehension level depends on."""

    qdi: int
    cdi: int
    w: int
    srt_s: float
    expected_time_s: float

    def __post_init__(self) -> None:
        effective_comprehension_level(self.qdi, self.cdi, self.w)  # checks the indices and w
        check_times(self.srt_s, self.expected_time_s)


def effective_comprehension_level(qdi: int, cdi: int, w: int) -> float:
    """Comprehension actually shown: qdi * cdi * answer weight."""
    check_int("qdi", qdi, one_of=DIFFICULTY_INDICES)
    check_int("cdi", cdi, one_of=DIFFICULTY_INDICES)
    check_int("w", w, one_of=WS_WEIGHTS)
    return float(qdi * cdi * w)


def max_comprehension_level(qdi: int, cdi: int) -> float:
    """Highest measurable comprehension: the effective level of a correct answer."""
    return effective_comprehension_level(qdi, cdi, CORRECT_WEIGHT)


def qcl(qdi: int, cdi: int, w: int, srt_s: float, t: float) -> float:
    """Time-sensitive comprehension of one question, in [0, 1], unchecked:
    ``ComprehensionInputs`` checks a library caller's inputs, the constructors
    of the spec and the responses all others. With ecl = qdi * cdi * w, mcl =
    qdi * cdi * 4, t the expected time and srt the accumulated response time:

    * srt <= t * FAST_FRACTION: ecl / (mcl * 4), a flat factor-4 penalty
      for answers fast enough to look like blind guesses;
    * t * FAST_FRACTION < srt <= t: ecl / mcl;
    * srt > t: ecl / (mcl + (srt - t)/t), shrinking with overtime.
    """
    ecl, mcl = float(qdi * cdi * w), float(qdi * cdi * CORRECT_WEIGHT)
    if srt_s <= t * FAST_FRACTION:
        return ecl / (mcl * 4)
    if srt_s <= t:
        return ecl / mcl
    return ecl / (mcl + (srt_s - t) / t)


def qucl(qcls: Sequence[float], ad: float, count: int) -> float:
    """:func:`questionnaire_comprehension_level`, unchecked."""
    return math.fsum(qcls) / (count + (1.0 - ad))


def p(ts: float, ws: float) -> float:
    """:func:`priority`, unchecked."""
    return (10.0 - ts) * ws / 10.0


def question_comprehension_level(inp: ComprehensionInputs) -> float:
    """Time-sensitive comprehension of one question, in [0, 1]: :func:`qcl`."""
    return qcl(inp.qdi, inp.cdi, inp.w, inp.srt_s, inp.expected_time_s)


def questionnaire_comprehension_level(qcls: Sequence[float], ad: float, q_count: int) -> float:
    """Assurance-penalized mean comprehension over a question set.

    Sum of the per-question comprehension levels divided by
    ``q_count + (1 - ad)``. Unanswered questions must already be in
    ``qcls`` (their level is 0), keeping the denominator at the full
    set size. Checks its inputs, then computes :func:`qucl`.
    """
    check_int("q_count", q_count, 1)
    if len(qcls) != q_count:
        raise DomainError(f"need one level per question, got {len(qcls)} for {shown(q_count)}")
    check_ranges("qcls", qcls, 0, 1)
    check_range("ad", ad, 0, 1)
    return qucl(qcls, ad, q_count)


def priority(ts: float, ws: float) -> float:
    """Study priority of a question set: (10 - ts) * ws / 10.

    High when many answers were near misses: much left to learn (low
    ts) that is already close (high ws). Checks its inputs, then computes :func:`p`.
    """
    check_range("ts", ts, 0, 10)
    check_range("ws", ws, 0, 10)
    return p(ts, ws)


def comprehension_for_response(response: QuestionResponse, question: QuestionSpec) -> float:
    """Per-question comprehension from a derived response; unanswered gives weight 0.
    Calls :func:`qcl` unchecked: each of its inputs was checked when it was built."""
    w = response.final_weight
    return qcl(question.qdi, question.cdi, w, response.srt_s, question.expected_time_s)


def comprehension_for_subset(
    responses: Mapping[int, QuestionResponse],
    spec: QuestionnaireSpec,
    subset: SubsetLike,
) -> float:
    """Questionnaire-level comprehension of a subset, assurance included."""
    picked = QuestionSubset.of(subset)
    ad = assurance_degree(responses, spec, picked)
    qcls = [comprehension_for_response(responses[qid], spec.question(qid)) for qid in picked]
    return questionnaire_comprehension_level(qcls, ad, len(picked))
