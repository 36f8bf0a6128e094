"""Metrics composed from the isolated ones: comprehension levels and priority."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .domain_model import DIFFICULTY_INDICES, WS_WEIGHTS, QuestionSpec, QuestionnaireSpec
from .errors import DomainError
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
        if self.qdi not in DIFFICULTY_INDICES or self.cdi not in DIFFICULTY_INDICES:
            raise DomainError(f"difficulty indices must be one of {DIFFICULTY_INDICES}")
        if self.w not in WS_WEIGHTS:
            raise DomainError(f"answer weight must be one of {WS_WEIGHTS}, got {self.w}")
        if self.srt_s < 0:
            raise DomainError("response time must be non-negative")
        if not self.expected_time_s > 0:
            raise DomainError("expected time must be positive")


def max_comprehension_level(qdi: int, cdi: int) -> float:
    """Highest measurable comprehension for a question: qdi * cdi * 4."""
    if qdi not in DIFFICULTY_INDICES or cdi not in DIFFICULTY_INDICES:
        raise DomainError(f"difficulty indices must be one of {DIFFICULTY_INDICES}")
    return float(qdi * cdi * 4)


def effective_comprehension_level(qdi: int, cdi: int, w: int) -> float:
    """Comprehension actually shown: qdi * cdi * answer weight."""
    if qdi not in DIFFICULTY_INDICES or cdi not in DIFFICULTY_INDICES:
        raise DomainError(f"difficulty indices must be one of {DIFFICULTY_INDICES}")
    if w not in WS_WEIGHTS:
        raise DomainError(f"answer weight must be one of {WS_WEIGHTS}, got {w}")
    return float(qdi * cdi * w)


def question_comprehension_level(inp: ComprehensionInputs) -> float:
    """Time-sensitive comprehension of one question, in [0, 1].

    With t the expected time, ecl/mcl as above and srt the accumulated
    response time:

    * srt <= t/4: ecl / (mcl * 4), a flat factor-4 penalty for answers
      fast enough to look like blind guesses;
    * t/4 < srt <= t: ecl / mcl;
    * srt > t: ecl / (mcl + (srt - t)/t), shrinking with overtime.
    """
    t = inp.expected_time_s
    ecl = effective_comprehension_level(inp.qdi, inp.cdi, inp.w)
    mcl = max_comprehension_level(inp.qdi, inp.cdi)
    if inp.srt_s <= t / 4:
        return ecl / (mcl * 4)
    if inp.srt_s <= t:
        return ecl / mcl
    return ecl / (mcl + (inp.srt_s - t) / t)


def questionnaire_comprehension_level(qcls: Sequence[float], ad: float, q_count: int) -> float:
    """Assurance-penalized mean comprehension over a question set.

    Sum of the per-question comprehension levels divided by
    ``q_count + (1 - ad)``. Unanswered questions must already be in
    ``qcls`` (their level is 0), keeping the denominator at the full
    set size.
    """
    if q_count == 0:
        raise DomainError("question count must be positive")
    if len(qcls) != q_count:
        raise DomainError(f"need one comprehension level per question, got {len(qcls)} for {q_count}")
    if not 0.0 <= ad <= 1.0:
        raise DomainError(f"assurance degree must lie in [0, 1], got {ad}")
    return sum(qcls) / (q_count + (1.0 - ad))


def priority(ts: float, ws: float) -> float:
    """Study priority of a question set: (10 - ts) * ws / 10.

    High when many answers were near misses: much left to learn (low
    ts) that is already close (high ws).
    """
    if not 0.0 <= ts <= 10.0 or not 0.0 <= ws <= 10.0:
        raise DomainError("scores must lie in [0, 10]")
    return (10.0 - ts) * ws / 10.0


def comprehension_for_response(response: QuestionResponse, question: QuestionSpec) -> float:
    """Per-question comprehension from a derived response; unanswered gives weight 0."""
    return question_comprehension_level(
        ComprehensionInputs(
            qdi=question.qdi,
            cdi=question.cdi,
            w=response.final_weight,
            srt_s=response.srt_s,
            expected_time_s=question.expected_time_s,
        )
    )


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
