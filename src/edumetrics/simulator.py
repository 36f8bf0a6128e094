"""Deterministic synthetic students with known metric outcomes.

Profiles mirror archetypal behaviors: a confident student who answers
everything correctly in reasonable time, a fast random guesser, a
self-corrector who changes answers before landing on the right one,
and an otherwise confident student who visits questions out of order.
Because every outcome is forced by the profile, simulated sessions
serve as an end-to-end oracle for the metric pipeline.

Randomness comes from a SplitMix64 generator implemented here rather
than the standard library so sessions reproduce bit-for-bit on any
platform. Its semantics: the 64-bit state advances by the odd constant
0x9E3779B97F4A7C15 per draw; the output is the new state mixed by
``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31``, all modulo 2**64. Bounded
draws use rejection sampling, so they are unbiased and portable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import floor
from typing import Sequence

from .domain_model import (
    FAST_FRACTION, AssessmentEvent, EventKind, QuestionnaireSpec, StudentSession,
)
from .errors import DomainError, SimulationError, check_int, shown

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Portable 64-bit generator; see the module docstring for the equations."""

    def __init__(self, seed: int):
        check_int("seed", seed)
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Unbiased draw from [0, n), n <= 2**64, by rejecting the top remainder band."""
        check_int("n", n, 1, 1 << 64)
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        check_int("lo", lo)
        check_int("hi", hi, lo)
        return lo + self.below(hi - lo + 1)

    def choice(self, items: Sequence):
        return items[self.below(len(items))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


class BehaviorKind(Enum):
    ASSURED = "assured"
    GUESSER = "guesser"
    SELF_CORRECTOR = "self-corrector"
    DISORDERED = "disordered"


# Per-question answer time as a fraction of the expected time: drawn
# from (low, high], low excluded so the fast/slow boundary is respected.
_TIME_FRACTIONS = {
    BehaviorKind.ASSURED: (FAST_FRACTION, 1.0),
    BehaviorKind.GUESSER: (0.0, FAST_FRACTION),
    BehaviorKind.SELF_CORRECTOR: (FAST_FRACTION, 1.0),
    BehaviorKind.DISORDERED: (FAST_FRACTION, 1.0),
}


@dataclass(frozen=True)
class BehaviorProfile:
    """A behavior kind plus the knobs that shape it.

    ``seed`` fully determines the generated session. Answer times are
    drawn from the kind's fixed fraction range of the expected time, and
    the disordered kind fully shuffles its visit order. ``markings_range``
    (or the explicit ``markings_per_question``) applies only to the
    self-corrector.
    """

    kind: BehaviorKind
    seed: int
    markings_range: tuple[int, int] = (2, 5)
    markings_per_question: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_int("seed", self.seed, 0, MASK64)
        _check_sequence("markings_range", self.markings_range, 2)
        lo, hi = self.markings_range
        check_int("markings_range[0]", lo, 1)
        check_int("markings_range[1]", hi, lo)
        if self.markings_per_question is not None:
            _check_sequence("markings_per_question", self.markings_per_question)
            object.__setattr__(self, "markings_per_question", tuple(self.markings_per_question))
            for markings in self.markings_per_question:
                check_int("markings_per_question", markings, 1)


def _check_sequence(name: str, value: object, length: int | None = None) -> None:
    """Raise DomainError unless ``value`` is a sequence, of ``length`` items when given."""
    if not isinstance(value, Sequence) or length is not None and len(value) != length:
        count = "" if length is None else f"{length} "
        raise DomainError(f"{name} must be a sequence of {count}integers, got {shown(value)}")


def profile_from_name(name: str, seed: int, **knobs) -> BehaviorProfile:
    """Build a profile from its CLI name, a :class:`BehaviorKind` value;
    other names raise DomainError."""
    try:
        kind = BehaviorKind(name)
    except ValueError:
        known = ", ".join(member.value for member in BehaviorKind)
        raise DomainError(f"unknown profile {name!r}; known profiles: {known}") from None
    return BehaviorProfile(kind=kind, seed=seed, **knobs)


def _is_monotonic(order: list[int]) -> bool:
    return order in (sorted(order), sorted(order, reverse=True))


def _visit_order(profile: BehaviorProfile, rng: SplitMix64, count: int) -> list[int]:
    order = list(range(1, count + 1))
    if profile.kind is not BehaviorKind.DISORDERED:
        return order
    while True:
        shuffled = list(range(1, count + 1))
        rng.shuffle(shuffled)
        # A monotonic visit order would show zero disorder; redraw, except
        # for tiny questionnaires where every order is monotonic.
        if count < 3 or not _is_monotonic(shuffled):
            return shuffled


def _draw_srt_ms(rng: SplitMix64, fractions: tuple[float, float], expected_time_s: float) -> int:
    t_ms = expected_time_s * 1000.0
    lo_ms = floor(fractions[0] * t_ms) + 1
    hi_ms = floor(fractions[1] * t_ms)
    if hi_ms < lo_ms:
        raise SimulationError(
            f"expected time {expected_time_s}s leaves no millisecond inside "
            f"fraction range ({fractions[0]}, {fractions[1]}]"
        )
    return rng.randint(lo_ms, hi_ms)


def simulate_student(
    profile: BehaviorProfile,
    spec: QuestionnaireSpec,
    student_id: str = "sim-0001",
) -> StudentSession:
    """Generate one student's session.

    The student views each question in the profile's visit order and
    answers it within the drawn time. Assured and disordered students
    answer correctly once; guessers pick a uniformly random option
    within a quarter of the expected time; self-correctors mark the
    question several times, landing on the correct option last. Raises
    SimulationError when the drawn schedule cannot fit the
    questionnaire's maximum total time.
    """
    per_question = profile.markings_per_question
    if per_question is not None and len(per_question) != spec.question_count:
        raise SimulationError(f"markings_per_question has {len(per_question)} entries "
                              f"for {spec.question_count} questions")
    rng = SplitMix64(profile.seed)
    fractions = _TIME_FRACTIONS[profile.kind]
    order = _visit_order(profile, rng, spec.question_count)

    events: list[AssessmentEvent] = []
    cursor = 0
    for qid in order:
        question = spec.question(qid)
        srt_ms = _draw_srt_ms(rng, fractions, question.expected_time_s)
        events.append(AssessmentEvent(student_id, qid, EventKind.VIEW, None, cursor))
        final = question.correct_option.option_id
        if profile.kind is BehaviorKind.GUESSER:
            final = rng.choice(question.options).option_id
        elif profile.kind is BehaviorKind.SELF_CORRECTOR:
            if per_question is not None:
                marks = per_question[qid - 1]
            else:
                marks = rng.randint(*profile.markings_range)
            wrong = [o.option_id for o in question.options if not o.is_correct]
            for step in range(1, marks):
                option_id, ts = rng.choice(wrong), cursor + round(srt_ms * step / marks)
                events.append(AssessmentEvent(student_id, qid, EventKind.ANSWER, option_id, ts))
        events.append(AssessmentEvent(student_id, qid, EventKind.ANSWER, final, cursor + srt_ms))
        cursor += srt_ms

    if cursor > spec.max_total_time_s * 1000.0:
        raise SimulationError(
            f"drawn schedule takes {cursor / 1000.0}s, over the questionnaire "
            f"maximum of {spec.max_total_time_s}s"
        )
    return StudentSession(student_id=student_id, events=tuple(events), session_end_ms=cursor)


def simulate_class(
    profile: BehaviorProfile,
    spec: QuestionnaireSpec,
    count: int,
    id_prefix: str = "sim-",
) -> list[StudentSession]:
    """Generate ``count`` students; student i runs on seed ``profile.seed + i``."""
    check_int("count", count, 0)
    sessions = []
    for index in range(count):
        student = replace(profile, seed=(profile.seed + index) & MASK64)
        sessions.append(simulate_student(student, spec, student_id=f"{id_prefix}{index + 1:04d}"))
    return sessions
