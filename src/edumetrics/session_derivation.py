"""Per-question facts derived from one student's raw event stream.

The derivation is pure: the same session always produces the same
responses, and nothing is read or written besides the arguments and the
returned values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby, repeat
from operator import itemgetter, truediv
from typing import Iterable, NamedTuple

from .domain_model import AnswerOption, EventKind, QuestionnaireSpec, StudentSession
from .errors import FLOAT_MAX, DomainError, check_int, check_range, shown

# An event carries an option id exactly when it is an answer (checked by
# AssessmentEvent.__new__ and by parse_event_log), so filter(_OPTION_ID,
# events) keeps the answers and all(map(_OPTION_ID, events)) finds no view.
_QUESTION_ID = itemgetter(1)
_OPTION_ID = itemgetter(3)


class SrtMode(Enum):
    """How inter-event time is attributed to questions.

    VIEW_INTERVALS charges the gap between consecutive events to the
    question current at the gap's start (the question of the most
    recent view or answer); the tail up to the session end goes to the
    question current at the last event. ANSWER_INTERVALS, meant for
    logs without view events, charges the gap between consecutive
    answers to the later answer's question (the time spent arriving at
    it); the first answer is charged from the session's first
    timestamp, and time after the last answer stays unattributed.
    """

    VIEW_INTERVALS = "view"
    ANSWER_INTERVALS = "answer"


class _ResponseFields(NamedTuple):
    question_id: int
    markings: int
    final_option: AnswerOption | None
    srt_s: float


class QuestionResponse(_ResponseFields):
    """What a student did on one question: markings, final pick, time.

    An immutable named tuple, read by field name or by unpacking. Building
    one, ``_make`` and ``_replace`` included, checks its fields.
    """

    __slots__ = ()

    def __new__(
        cls, question_id: int, markings: int, final_option: AnswerOption | None, srt_s: float
    ) -> QuestionResponse:
        check_int("question_id", question_id, 1)
        check_int("markings", markings, 0)
        if (final_option is not None) != (markings >= 1):
            raise DomainError("final_option must be present exactly when markings >= 1")
        check_range("srt_s", srt_s, 0, FLOAT_MAX)
        return tuple.__new__(cls, (question_id, markings, final_option, srt_s))

    @classmethod
    def _make(cls, iterable: Iterable) -> QuestionResponse:
        return cls(*iterable)

    @property
    def is_correct(self) -> bool:
        return self.final_option is not None and self.final_option.is_correct

    @property
    def final_weight(self) -> int:
        """Score weight of the final pick; 0 when unanswered."""
        return self.final_option.ws_weight if self.final_option else 0


@dataclass(frozen=True)
class AnswerSequence:
    """The question ids of all answer events, in time order."""

    question_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.question_ids)

    def restricted_to(self, question_ids: Iterable[int]) -> "AnswerSequence":
        """Subsequence of answers to the given questions, order preserved."""
        keep = set(question_ids)
        return AnswerSequence(tuple([q for q in self.question_ids if q in keep]))


def pick_log_srt_mode(sessions: Iterable[StudentSession]) -> SrtMode:
    """One mode for a whole log: VIEW_INTERVALS when any of its sessions
    carries a view event, else ANSWER_INTERVALS."""
    if any(not all(map(_OPTION_ID, s.events)) for s in sessions):
        return SrtMode.VIEW_INTERVALS
    return SrtMode.ANSWER_INTERVALS


def derive_responses(
    session: StudentSession, spec: QuestionnaireSpec, srt_mode: SrtMode
) -> dict[int, QuestionResponse]:
    """Build one QuestionResponse per question in the spec.

    Questions never touched get markings 0 and zero time. Every answer
    event counts as a marking, including re-selections of the same
    option. Accumulated time follows ``srt_mode``, one per log: pass
    :func:`pick_log_srt_mode` of all its sessions, as ``edumetrics
    compute`` does, or a fixed mode. A session that names a question the
    spec lacks, in an event the mode reads, raises ``DomainError``; a
    view in answer mode is read by no metric.
    """
    if not isinstance(srt_mode, SrtMode):  # None or "view" would time by answers
        raise DomainError(f"srt_mode must be an SrtMode, got {shown(srt_mode)}")
    events = session.events
    answer = EventKind.ANSWER
    markings, final_option_id, srt_ms = {}, {}, {}  # by question id
    # The view loop unpacks each event: in CPython 3.11 a tuple unpack is
    # cheaper than reading named-tuple fields.
    if srt_mode is SrtMode.VIEW_INTERVALS:
        # Each gap goes to the question of the event opening it (0, unread, before any).
        current, since = 0, events[0].timestamp_ms if events else 0
        for _, qid, kind, option_id, ts in events:
            srt_ms[current] = srt_ms.get(current, 0) + ts - since
            current, since = qid, ts
            if kind is answer:
                markings[qid] = markings.get(qid, 0) + 1
                final_option_id[qid] = option_id
        srt_ms[current] = srt_ms.get(current, 0) + session.session_end_ms - since
    else:
        # The first answer is charged from the first event, view or not. One
        # step per run of answers to one question: the gaps inside a run add
        # up to its last answer's time minus the time before its first.
        since = events[0].timestamp_ms if events else 0
        for qid, (*earlier, (_, _, _, option_id, ts)) in groupby(
            filter(_OPTION_ID, events), _QUESTION_ID
        ):
            markings[qid] = markings.get(qid, 0) + len(earlier) + 1
            final_option_id[qid] = option_id
            srt_ms[qid] = srt_ms.get(qid, 0) + ts - since
            since = ts
    # srt_ms has a key for every question id the mode reads.
    if (unknown := max(srt_ms, default=0)) > spec.question_count:
        raise DomainError(f"question {shown(unknown)} is not in the spec")

    # Each response is built bare, a column per field, as _parse_columns builds a
    # session: the markings are counts, the option is the spec's and the time a
    # sum of gaps below MAX_TIMESTAMP_MS.
    qids = range(1, spec.question_count + 1)
    options_by_id, _, _, _ = spec._question_columns
    options = list(map(dict.get, options_by_id, map(final_option_id.get, qids)))
    if options.count(None) != len(qids) - len(final_option_id):  # an option the question lacks
        for question in spec.questions:
            if question.question_id in final_option_id:
                question.option(final_option_id[question.question_id])
    marks = map(markings.get, qids, repeat(0))
    srts = map(truediv, map(srt_ms.get, qids, repeat(0)), repeat(1000.0))
    return dict(zip(qids, map(tuple.__new__, repeat(QuestionResponse),
                              zip(qids, marks, options, srts))))


def derive_answer_sequence(session: StudentSession) -> AnswerSequence:
    """Answer events only, in time order, duplicates preserved."""
    return AnswerSequence(tuple(map(_QUESTION_ID, filter(_OPTION_ID, session.events))))
