"""Domain types for questionnaires and assessment event logs.

Two interchange formats live here:

* questionnaire JSON: the authored questionnaire with per-option score
  weights, difficulty indices, expected answer times and subject/topic
  tags;
* event CSV: the captured interaction log, one row per view/answer
  event, with epoch-millisecond timestamps.

Everything parsed is immutable afterwards. Invariants are enforced at
construction time: violations raise :class:`ValidationError`,
syntactically malformed input raises :class:`ParseError`.
:func:`parse_event_log` is the boundary that validates event rows: it
makes every check of :class:`AssessmentEvent` and :class:`StudentSession`
and builds both without repeating those checks. :func:`_check_student_id`
is the one student-id rule, for all three.

The checks inside a parse loop raise without a location. Each loop adds
it in one place, through the errors' ``locate``: the question id in
:func:`parse_questionnaire`, the row's line in :func:`parse_event_log`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import ParseError, ValidationError

WS_WEIGHTS = (0, 1, 2, 3, 4)
LU_DEVIATIONS = (0, 2, 3, 4, 5)
DIFFICULTY_INDICES = (1, 3, 5)
CORRECT_WEIGHT = 4
# An answer given within this fraction of the expected time counts as a blind guess.
FAST_FRACTION = 0.25
STANDARD_OPTION_IDS = ("a", "b", "c", "d", "e")

# Deviation used when the questionnaire omits it: the order-preserving
# injection of the 0-4 answer weights into the 0-5 deviation scale.
DEFAULT_LU_DEVIATION = {0: 0, 1: 2, 2: 3, 3: 4, 4: 5}

EVENT_CSV_HEADER = ("student_id", "question_id", "event", "option_id", "timestamp_ms")
# parse_event_log reads the log in slices of about this many characters.
_CHUNK_CHARS = 65536
_RESERVED_ID_CHARS = frozenset(',"\n\r')

SCOPE_QUESTIONNAIRE = "questionnaire"
SCOPE_SUBJECT = "subject"
SCOPE_TOPIC = "topic"

MAX_TIMESTAMP_MS = 2**63 - 1  # keeps every class-wide sum of srt seconds finite


class EventKind(Enum):
    VIEW = "view"
    ANSWER = "answer"


@dataclass(frozen=True)
class AnswerOption:
    """One selectable answer with its score weight and deviation value.

    The correct answer is the option carrying weight 4; there is no
    separate flag.
    """

    option_id: str
    ws_weight: int
    lu_deviation: int

    def __post_init__(self) -> None:
        if not (len(self.option_id) == 1 and "a" <= self.option_id <= "z"):
            raise ValidationError(
                f"option_id must be a single lowercase letter, got {self.option_id!r}",
                field="option_id",
            )
        if self.ws_weight not in WS_WEIGHTS:
            raise ValidationError(
                f"ws_weight must be one of {WS_WEIGHTS}, got {self.ws_weight}",
                field="ws_weight",
            )
        if self.lu_deviation not in LU_DEVIATIONS:
            raise ValidationError(
                f"lu_deviation must be one of {LU_DEVIATIONS}, got {self.lu_deviation}",
                field="lu_deviation",
            )

    @property
    def is_correct(self) -> bool:
        return self.ws_weight == CORRECT_WEIGHT


@dataclass(frozen=True)
class QuestionSpec:
    """A question with its answer options, tags and difficulty indices."""

    question_id: int
    subject: str
    topic_ids: frozenset[int]
    qdi: int
    cdi: int
    tdi: int
    expected_time_s: float
    options: tuple[AnswerOption, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "topic_ids", frozenset(self.topic_ids))
        object.__setattr__(self, "options", tuple(self.options))
        qid = self.question_id
        if not isinstance(qid, int) or qid < 1:
            raise ValidationError("question_id must be a positive integer", field="question_id")
        for name in ("qdi", "cdi", "tdi"):
            if getattr(self, name) not in DIFFICULTY_INDICES:
                raise ValidationError(
                    f"{name} must be one of {DIFFICULTY_INDICES}, got {getattr(self, name)}",
                    field=name,
                    question_id=qid,
                )
        if not 0 < self.expected_time_s < math.inf:
            raise ValidationError(
                "expected_time_s must be positive and finite",
                field="expected_time_s",
                question_id=qid,
            )
        if not self.options:
            raise ValidationError("question has no options", field="options", question_id=qid)
        ids = [o.option_id for o in self.options]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate option_id", field="options", question_id=qid)
        correct = [o for o in self.options if o.is_correct]
        if len(correct) != 1:
            raise ValidationError(
                f"exactly one option must carry weight {CORRECT_WEIGHT}, found {len(correct)}",
                field="options",
                question_id=qid,
            )

    @property
    def correct_option(self) -> AnswerOption:
        return next(o for o in self.options if o.is_correct)

    def option(self, option_id: str) -> AnswerOption:
        for opt in self.options:
            if opt.option_id == option_id:
                return opt
        raise ValidationError(
            f"unknown option_id {option_id!r}", field="option_id", question_id=self.question_id
        )


@dataclass(frozen=True)
class QuestionnaireSpec:
    """An ordered questionnaire; question ids are the 1-based positions."""

    questionnaire_id: str
    questions: tuple[QuestionSpec, ...]
    max_total_time_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "questions", tuple(self.questions))
        if not self.questions:
            raise ValidationError("questionnaire has no questions", field="questions")
        for position, question in enumerate(self.questions, start=1):
            if question.question_id != position:
                raise ValidationError(
                    f"question ids must be contiguous from 1, found {question.question_id} "
                    f"at position {position}",
                    field="question_id",
                    question_id=question.question_id,
                )
        if not 0 < self.max_total_time_s < math.inf:
            raise ValidationError(
                "max_total_time_s must be positive and finite", field="max_total_time_s"
            )

    @property
    def question_count(self) -> int:
        return len(self.questions)

    def question(self, question_id: int) -> QuestionSpec:
        if not isinstance(question_id, int) or not 1 <= question_id <= len(self.questions):
            raise ValidationError(
                f"unknown question_id {question_id!r}", field="question_id",
                question_id=question_id if isinstance(question_id, int) else None,
            )
        return self.questions[question_id - 1]

    def subjects(self) -> tuple[str, ...]:
        """Distinct subjects in order of first appearance."""
        seen: dict[str, None] = {}
        for question in self.questions:
            seen.setdefault(question.subject, None)
        return tuple(seen)

    def topics(self) -> tuple[int, ...]:
        """Distinct topic ids, ascending."""
        found: set[int] = set()
        for question in self.questions:
            found.update(question.topic_ids)
        return tuple(sorted(found))

    @cached_property
    def subset_layout(self) -> tuple[tuple[str, str | int | None, tuple[int, ...]], ...]:
        """(scope, element, question ids) of every reported question set:
        the whole questionnaire, then each subject in order of first
        appearance, then each topic ascending. Built once per spec."""
        layout = [(SCOPE_QUESTIONNAIRE, None, tuple(q.question_id for q in self.questions))]
        for subject in self.subjects():
            ids = tuple(q.question_id for q in self.questions if q.subject == subject)
            layout.append((SCOPE_SUBJECT, subject, ids))
        for topic in self.topics():
            ids = tuple(q.question_id for q in self.questions if topic in q.topic_ids)
            layout.append((SCOPE_TOPIC, topic, ids))
        return tuple(layout)

    @cached_property
    def subsets_of_question(self) -> tuple[tuple[int, ...], ...]:
        """Per question, the indices into ``subset_layout`` of the question
        sets that hold it, ascending. Built once per spec."""
        return tuple(
            tuple(i for i, (_, _, ids) in enumerate(self.subset_layout) if q.question_id in ids)
            for q in self.questions
        )


class _EventFields(NamedTuple):
    student_id: str
    question_id: int
    kind: EventKind
    option_id: str | None
    timestamp_ms: int


class AssessmentEvent(_EventFields):
    """One logged interaction: a question view or an answer selection.

    An immutable named tuple, read by field name or by unpacking. Building
    one, ``_make`` and ``_replace`` included, checks its fields.
    """

    __slots__ = ()

    def __new__(
        cls, student_id: str, question_id: int, kind: EventKind, option_id: str | None,
        timestamp_ms: int,
    ) -> AssessmentEvent:
        _check_student_id(student_id)
        if not isinstance(question_id, int) or question_id < 1:
            raise ValidationError("question_id must be a positive integer", field="question_id")
        if not isinstance(timestamp_ms, int) or timestamp_ms < 0:
            raise ValidationError(
                "timestamp_ms must be a non-negative integer", field="timestamp_ms"
            )
        if timestamp_ms > MAX_TIMESTAMP_MS:
            raise ValidationError(
                f"timestamp_ms must not exceed {MAX_TIMESTAMP_MS}", field="timestamp_ms"
            )
        if kind is EventKind.ANSWER and not option_id:
            raise ValidationError("answer events need an option_id", field="option_id")
        if kind is EventKind.VIEW and option_id is not None:
            raise ValidationError("view events must not carry an option_id", field="option_id")
        return tuple.__new__(cls, (student_id, question_id, kind, option_id, timestamp_ms))

    @classmethod
    def _make(cls, iterable: Iterable) -> AssessmentEvent:
        return cls(*iterable)


def _check_student_id(student_id: str) -> None:
    """A student id is non-empty and holds none of the characters the log reserves."""
    if not student_id:
        raise ValidationError("student_id must be non-empty", field="student_id")
    if not _RESERVED_ID_CHARS.isdisjoint(student_id):
        raise ValidationError(
            f"student_id {student_id!r} contains characters the log format reserves",
            field="student_id",
        )


@dataclass(frozen=True)
class StudentSession:
    """All events of one student, time-ordered, plus the session end."""

    student_id: str
    events: tuple[AssessmentEvent, ...]
    session_end_ms: int

    def __post_init__(self) -> None:
        _check_student_id(self.student_id)
        object.__setattr__(self, "events", tuple(self.events))
        stamps = [e.timestamp_ms for e in self.events]
        if any(a > b for a, b in zip(stamps, stamps[1:])):
            raise ValidationError(
                "session events must be ordered by timestamp", field="timestamp_ms"
            )
        if any(e.student_id != self.student_id for e in self.events):
            raise ValidationError("session contains events of another student", field="student_id")
        last = stamps[-1] if stamps else 0
        if self.session_end_ms < last:
            raise ValidationError(
                "session_end_ms precedes the last event", field="session_end_ms"
            )


def _get(mapping: dict, key: str, kinds):
    if key not in mapping:
        raise ValidationError(f"missing field {key!r}", field=key)
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValidationError(f"field {key!r} has the wrong type", field=key)
    return value


def _get_float(mapping: dict, key: str) -> float:
    value = _get(mapping, key, (int, float))
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"field {key!r} must be a finite number", field=key) from None


def _parse_question(raw: dict, allow_any_option_count: bool) -> dict:
    """The :class:`QuestionSpec` fields of one question other than its id."""
    options = []
    for raw_opt in _get(raw, "options", list):
        if not isinstance(raw_opt, dict):
            raise ValidationError("each option must be a JSON object", field="options")
        weight = _get(raw_opt, "ws_weight", int)
        if "lu_deviation" in raw_opt:
            deviation = _get(raw_opt, "lu_deviation", int)
        else:
            deviation = DEFAULT_LU_DEVIATION.get(weight, 0)
        options.append(AnswerOption(_get(raw_opt, "option_id", str), weight, deviation))
    if not allow_any_option_count:
        if tuple(o.option_id for o in options) != STANDARD_OPTION_IDS:
            raise ValidationError(
                f"questions must offer exactly the options {'/'.join(STANDARD_OPTION_IDS)}",
                field="options",
            )
    topic_ids = _get(raw, "topic_ids", list)
    if any(isinstance(t, bool) or not isinstance(t, int) for t in topic_ids):
        raise ValidationError("topic_ids must be integers", field="topic_ids")
    if len(set(topic_ids)) != len(topic_ids):
        raise ValidationError("duplicate topic_id", field="topic_ids")
    return dict(
        subject=_get(raw, "subject", str),
        topic_ids=frozenset(topic_ids),
        qdi=_get(raw, "qdi", int),
        cdi=_get(raw, "cdi", int),
        tdi=_get(raw, "tdi", int),
        expected_time_s=_get_float(raw, "expected_time_s"),
        options=tuple(options),
    )


def parse_questionnaire(text: str, *, allow_any_option_count: bool = False) -> QuestionnaireSpec:
    """Parse and validate the questionnaire JSON format, given as a string.

    By default each question must offer exactly the five options
    ``a`` through ``e``; pass ``allow_any_option_count=True`` to accept
    any non-empty option list.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError:  # past the interpreter's int() digit cap, which stays as it is
        raise ParseError("an integer literal has too many digits") from None
    except RecursionError:
        raise ParseError("arrays or objects are nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValidationError("top level must be a JSON object", field="questionnaire")

    questionnaire_id = _get(doc, "questionnaire_id", str)
    max_total_time_s = _get_float(doc, "max_total_time_s")
    raw_questions = _get(doc, "questions", list)

    questions = []
    for raw in raw_questions:
        if not isinstance(raw, dict):
            raise ValidationError("each question must be a JSON object", field="questions")
        qid = _get(raw, "question_id", int)
        try:
            fields = _parse_question(raw, allow_any_option_count)
        except ValidationError as exc:
            raise exc.locate(question_id=qid) from None
        # Built outside the try: QuestionSpec locates its own errors, except
        # the one that rejects an id below 1, which names no question.
        questions.append(QuestionSpec(question_id=qid, **fields))
    return QuestionnaireSpec(
        questionnaire_id=questionnaire_id,
        questions=tuple(questions),
        max_total_time_s=max_total_time_s,
    )


def serialize_questionnaire(spec: QuestionnaireSpec) -> str:
    """Render a spec back to its JSON form; re-parsing yields an equal spec."""
    doc = {
        "questionnaire_id": spec.questionnaire_id,
        "max_total_time_s": spec.max_total_time_s,
        "questions": [{**asdict(q), "topic_ids": sorted(q.topic_ids)} for q in spec.questions],
    }
    return json.dumps(doc, indent=2) + "\n"


def _parse_int(raw: str, field: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{field} must be an integer, got {raw!r}") from None


def _lines(text: str) -> Iterator[str]:
    """The lines of ``io.StringIO(text)``, read from slices of about
    ``_CHUNK_CHARS`` characters, each cut just after a ``\\n``, so that no
    copy of the whole text is made."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        yield from io.StringIO(text[start:end])
        start = end


def parse_event_log(text: str, spec: QuestionnaireSpec) -> list[StudentSession]:
    """Parse the event CSV, given as a string, into one session per student.

    Rows of different students may interleave; within a student, events
    are stably re-sorted by timestamp. The session end is the student's
    last timestamp unless an explicit ``end`` row (empty question_id and
    option_id) provides one. A line the ``csv`` module cannot read, such
    as one with a field over its size limit, raises a located ParseError.
    Every event of a student holds the one id string of their session.
    """
    if not text.strip():
        return []
    # Every check of AssessmentEvent.__new__ is made below, once per row (the
    # id rule once per student), and every check of
    # StudentSession.__post_init__ once per student (the same id rule, events
    # sorted and grouped by student id, the end against the last event), so
    # both are built with the bare tuple and object constructors.
    question_by_raw_id = {
        str(q.question_id): (q.question_id, frozenset(o.option_id for o in q.options))
        for q in spec.questions
    }
    kind_by_raw = {kind.value: kind for kind in EventKind}
    new_event = tuple.__new__
    # By student id: the id string of the student's first row, and their events.
    events_by_student: dict[str, tuple[str, list[AssessmentEvent]]] = {}
    end_by_student: dict[str, tuple[int, int]] = {}
    reader = csv.reader(_lines(text))
    try:
        header = next(reader)
        if tuple(header) != EVENT_CSV_HEADER:
            raise ParseError(
                f"unexpected header {','.join(header)!r}, want {','.join(EVENT_CSV_HEADER)!r}",
                line=1,
            )
        for row in reader:
            if not row:
                continue
            if len(row) != len(EVENT_CSV_HEADER):
                raise ParseError(f"expected {len(EVENT_CSV_HEADER)} fields, got {len(row)}")
            student_id, raw_qid, raw_event, raw_option, raw_ts = row
            if not student_id:  # on every row, before the row's other faults
                raise ValidationError("student_id must be non-empty", field="student_id")
            timestamp_ms = _parse_int(raw_ts, "timestamp_ms")
            if not 0 <= timestamp_ms <= MAX_TIMESTAMP_MS:
                reason = "be non-negative" if timestamp_ms < 0 else f"not exceed {MAX_TIMESTAMP_MS}"
                raise ValidationError(f"timestamp_ms must {reason}", field="timestamp_ms")
            kind = kind_by_raw.get(raw_event)
            if kind is not None:
                question = question_by_raw_id.get(raw_qid)
                if question is None:
                    # Spellings such as " 3", "03" or "+3" still name question 3.
                    question_id = _parse_int(raw_qid, "question_id")
                    spec.question(question_id)
                    question = question_by_raw_id[str(question_id)]
                question_id, option_ids = question
                option_id = None
                if kind is EventKind.ANSWER:
                    if raw_option not in option_ids:
                        raise ValidationError(
                            f"unknown option_id {raw_option!r}",
                            field="option_id",
                            question_id=question_id,
                        )
                    option_id = raw_option
                elif raw_option:
                    raise ValidationError("view rows must leave option_id empty", field="option_id")
            elif raw_event != "end":
                raise ValidationError(f"unknown event kind {raw_event!r}", field="event")
            elif raw_qid or raw_option:
                raise ValidationError(
                    "end rows must leave question_id and option_id empty", field="event"
                )
            elif student_id in end_by_student:
                raise ValidationError(
                    f"duplicate end row for student {student_id!r}", field="event"
                )
            # A student's first row of any kind registers them, once it passed its own checks.
            student = events_by_student.get(student_id)
            if student is None:
                _check_student_id(student_id)
                student = events_by_student[student_id] = (student_id, [])
            if kind is None:
                end_by_student[student_id] = (timestamp_ms, reader.line_num)
                continue
            student_id, events = student
            events.append(
                new_event(AssessmentEvent, (student_id, question_id, kind, option_id, timestamp_ms))
            )
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    except (ParseError, ValidationError) as exc:
        raise exc.locate(line=reader.line_num) from None

    new_object = object.__new__
    set_field = object.__setattr__
    sessions = []
    for student_id, events in events_by_student.values():
        events.sort(key=itemgetter(4))  # timestamp_ms
        last = events[-1].timestamp_ms if events else 0
        end, end_line = end_by_student.get(student_id, (last, None))
        if end < last:
            raise ValidationError(
                f"end row for student {student_id!r} precedes their last event",
                field="timestamp_ms",
                line=end_line,
            )
        session = new_object(StudentSession)
        set_field(session, "student_id", student_id)
        set_field(session, "events", tuple(events))
        set_field(session, "session_end_ms", end)
        sessions.append(session)
    return sessions


def event_log_csv(sessions: Iterable[StudentSession]) -> str:
    """Render sessions to the event CSV format (LF endings, unquoted).

    An explicit ``end`` row is added only when the session end does not
    coincide with the last event.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(EVENT_CSV_HEADER)
    for session in sessions:
        for event in session.events:
            writer.writerow(
                [
                    event.student_id,
                    event.question_id,
                    event.kind.value,
                    event.option_id or "",
                    event.timestamp_ms,
                ]
            )
        needs_end = (not session.events) or (
            session.session_end_ms != session.events[-1].timestamp_ms
        )
        if needs_end:
            writer.writerow([session.student_id, "", "end", "", session.session_end_ms])
    return buffer.getvalue()
