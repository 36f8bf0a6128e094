"""Domain types for questionnaires and assessment event logs.

Two interchange formats live here:

* questionnaire JSON: the authored questionnaire with per-option score
  weights, difficulty indices, expected answer times and subject/topic
  tags;
* event CSV: the captured interaction log, one row per view/answer
  event, with epoch-millisecond timestamps.

Everything parsed is immutable afterwards. Invariants are enforced at
construction time: violations raise :class:`ValidationError`,
syntactically malformed input raises :class:`ParseError`. Each field rule
is stated once, in the constructor that owns it or a ``_check_*`` helper
they share; :func:`parse_questionnaire` checks only JSON types and the
standard option set. :func:`parse_event_log` is the boundary that validates
event rows: it makes every check of :class:`AssessmentEvent` and
:class:`StudentSession` and builds both without repeating those checks.

The checks inside a parse loop raise without a location. Each loop adds
it in one place, through the errors' ``locate``: the question id in
:func:`parse_questionnaire`, the row's line in :func:`parse_event_log`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, groupby, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import FLOAT_MAX, ParseError, ValidationError, is_int, shown

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
# parse_event_log reads slices of about this many characters, or a 32nd as many csv rows.
_CHUNK_CHARS = 16384
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
        _check_option_id(self.option_id)
        _check_member(self.ws_weight, WS_WEIGHTS, "ws_weight")
        _check_member(self.lu_deviation, LU_DEVIATIONS, "lu_deviation")

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
        qid = self.question_id
        topic_ids = list(self.topic_ids)  # first, and as given: a frozenset merges True with 1
        if not all(map(is_int, topic_ids)):
            raise ValidationError("topic_ids must be integers", field="topic_ids", question_id=qid)
        if len(set(topic_ids)) != len(topic_ids):
            raise ValidationError("duplicate topic_id", field="topic_ids", question_id=qid)
        object.__setattr__(self, "topic_ids", frozenset(topic_ids))
        object.__setattr__(self, "options", tuple(self.options))
        _check_question_id(qid)
        for name in ("qdi", "cdi", "tdi"):
            _check_member(getattr(self, name), DIFFICULTY_INDICES, name, qid)
        _check_seconds(self.expected_time_s, "expected_time_s", qid)
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

    @cached_property
    def _options_by_id(self) -> dict[str, AnswerOption]:
        return {opt.option_id: opt for opt in self.options}

    def option(self, option_id: str) -> AnswerOption:
        found = self._options_by_id.get(option_id)
        if found is None:
            raise ValidationError(
                f"unknown option_id {option_id!r}", field="option_id", question_id=self.question_id
            )
        return found


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
                    f"question ids must be contiguous from 1, found {shown(question.question_id)} "
                    f"at position {position}",
                    field="question_id",
                    question_id=question.question_id,
                )
        _check_seconds(self.max_total_time_s, "max_total_time_s")

    @property
    def question_count(self) -> int:
        return len(self.questions)

    def question(self, question_id: int) -> QuestionSpec:
        if not is_int(question_id) or not 1 <= question_id <= len(self.questions):
            raise ValidationError(f"unknown question_id {shown(question_id)}", field="question_id",
                                  question_id=question_id if is_int(question_id) else None)
        return self.questions[question_id - 1]

    def subjects(self) -> tuple[str, ...]:
        """Distinct subjects in order of first appearance."""
        return tuple(dict.fromkeys(q.subject for q in self.questions))

    def topics(self) -> tuple[int, ...]:
        """Distinct topic ids, ascending."""
        return tuple(sorted({t for q in self.questions for t in q.topic_ids}))

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
    def _event_fields(self) -> dict[tuple[str, str, str], tuple[int, EventKind, str | None]]:
        """(question id, event, option id or "") of every valid view or answer
        row, as the log spells them -> its event's (question id, kind, option
        id or None). Built once per spec; read by the column check only."""
        table = {}
        for q in self.questions:
            qid = str(q.question_id)
            table[qid, "view", ""] = (q.question_id, EventKind.VIEW, None)
            for o in q.options:
                table[qid, "answer", o.option_id] = (q.question_id, EventKind.ANSWER, o.option_id)
        return table

    @cached_property
    def _question_columns(self) -> tuple[tuple, tuple, tuple, tuple]:
        """The questions' options by id, qdi, cdi and expected times, one tuple
        per fact in question order. Built once per spec; read by the compute path."""
        return tuple(zip(*[(q._options_by_id, q.qdi, q.cdi, q.expected_time_s)
                           for q in self.questions]))

    @cached_property
    def _subset_getters(self) -> tuple[itemgetter, ...]:
        """Per row of ``subset_layout``, the getter of its questions' entries, as
        a tuple, from a column in question order; a one-question set takes a
        one-element slice, so it too gets a tuple. Built once per spec."""
        positions = ([q - 1 for q in ids] for _, _, ids in self.subset_layout)
        return tuple(itemgetter(*p) if len(p) > 1 else itemgetter(slice(p[0], p[0] + 1))
                     for p in positions)

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
        _check_question_id(question_id)
        _check_timestamp_ms(timestamp_ms, "timestamp_ms")
        if not isinstance(kind, EventKind):
            raise ValidationError(f"kind must be an EventKind, got {kind!r}", field="kind")
        if kind is EventKind.ANSWER and not option_id:
            raise ValidationError("answer events need an option_id", field="option_id")
        if kind is EventKind.ANSWER:
            _check_option_id(option_id)
        elif option_id is not None:
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


def _check_question_id(question_id: int) -> None:
    """A question id is a positive int, not a bool."""
    if not is_int(question_id) or question_id < 1:
        raise ValidationError("question_id must be a positive integer", field="question_id")


def _check_option_id(option_id: str) -> None:
    """An option id is a single lowercase letter."""
    if not (isinstance(option_id, str) and len(option_id) == 1 and "a" <= option_id <= "z"):
        raise ValidationError(
            f"option_id must be a single lowercase letter, got {option_id!r}", field="option_id"
        )


def _check_timestamp_ms(value: int, field: str) -> None:
    """A time in the log is an int, not a bool, in [0, MAX_TIMESTAMP_MS]."""
    if not is_int(value) or value < 0:
        raise ValidationError(f"{field} must be a non-negative integer", field=field)
    if value > MAX_TIMESTAMP_MS:
        raise ValidationError(f"{field} must not exceed {MAX_TIMESTAMP_MS}", field=field)


def _check_seconds(value: float, field: str, question_id: int | None = None) -> None:
    """A time in the spec is a positive, finite number, not a bool."""
    if isinstance(value, bool) or not 0 < value <= FLOAT_MAX:
        raise ValidationError(
            f"{field} must be positive and finite", field=field, question_id=question_id
        )


def _check_member(value: int, allowed: tuple, field: str, question_id: int | None = None) -> None:
    """A value from a fixed set is an int, not a bool, of ``allowed``."""
    if not is_int(value) or value not in allowed:
        raise ValidationError(f"{field} must be one of {allowed}, got {shown(value)}",
                              field=field, question_id=question_id)


@dataclass(frozen=True)
class StudentSession:
    """All events of one student, time-ordered, plus the session end."""

    student_id: str
    events: tuple[AssessmentEvent, ...]
    session_end_ms: int

    def __post_init__(self) -> None:
        _check_student_id(self.student_id)
        _check_timestamp_ms(self.session_end_ms, "session_end_ms")
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
            raise ValidationError("session_end_ms precedes the last event", field="session_end_ms")


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
    return dict(
        topic_ids=_get(raw, "topic_ids", list),  # before "subject": its fault is reported first
        subject=_get(raw, "subject", str),
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


def _slices(text: str, start: int = 0) -> Iterator[tuple[int, int]]:
    """(start, end) of the slices of ``text[start:]``: about ``_CHUNK_CHARS``
    characters each, each cut just after a line end: an LF, or a CR that no
    LF follows, searched for only up to that LF."""
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        # A CR at end - 2 may open a CRLF; one before it is followed by no LF.
        end = text.find("\r", start + _CHUNK_CHARS - 1, max(end - 2, 0)) + 1 or end
        yield start, end
        start = end


def _lines(text: str) -> Iterator[str]:
    """The lines of ``io.StringIO(text, newline=None)``, read slice by slice,
    so that no copy of the whole text is made. As in a file opened in text
    mode, a lone CR or a CRLF ends a line, read as LF."""
    for start, end in _slices(text):
        yield from io.StringIO(text[start:end], newline=None)


def parse_event_log(text: str, spec: QuestionnaireSpec) -> list[StudentSession]:
    """Parse the event CSV, given as a string, into one session per student.

    Rows of different students may interleave; within a student, events
    are stably re-sorted by timestamp. The session end is the student's
    last timestamp unless an explicit ``end`` row (empty question_id and
    option_id) provides one. A line the ``csv`` module cannot read, such
    as one with a field over its size limit, raises a located ParseError.
    Every event of a student holds the one id string of their session.

    Every readable log has one success path, :func:`_parse_columns`, which
    checks its rows as whole columns, a batch at a time. A log it refuses is
    read again by the row loop, :func:`_parse_rows`, to raise its error.
    """
    if not text or text.isspace():
        return []
    sessions = _parse_columns(text, spec)
    if sessions is None:
        _parse_rows(text, spec)  # raises: the column check refuses only a faulty log
    return sessions


def _field_batches(text: str) -> Iterator[list[str]]:
    """The fields of the rows under the header, one flat list per batch of
    non-blank rows: a plain log (no ``"``, CR or NUL) split on ``,`` slice by
    slice, any other read by one ``csv.reader``. Raises ValueError or csv.Error
    where csv would not read five-field rows under the exact header."""
    header = ",".join(EVENT_CSV_HEADER)
    plain = not ('"' in text or "\r" in text or "\0" in text)
    if plain and text[: len(header) + 1] in (header, header + "\n"):
        for start, end in _slices(text, len(header) + 1):
            rows = list(filter(None, text[start:end].split("\n")))
            if not rows:
                continue
            fields = ",".join(rows).split(",")
            # A slice within the csv field limit holds no field over it.
            if set(map(str.count, rows, repeat(","))) != {4} or (
                end - start > csv.field_size_limit() < max(map(len, fields))
            ):
                raise ValueError("not a table of five-field rows under the field limit")
            yield fields
        return
    reader = csv.reader(_lines(text))
    if next(reader, None) != list(EVENT_CSV_HEADER):
        raise ValueError("not the event-log header")
    rows = filter(None, reader)  # no blank rows
    while batch := list(islice(rows, _CHUNK_CHARS // 32 + 1)):
        if set(map(len, batch)) != {5}:
            raise ValueError("not a table of five-field rows")
        yield list(chain.from_iterable(batch))


def _parse_columns(text: str, spec: QuestionnaireSpec) -> list[StudentSession] | None:
    """The sessions of ``text``, or None when a row fails a check. Each batch
    is checked as whole columns: one lookup per (question id, event, option
    id) in the spec's table and ``int`` over the timestamps. Only a batch
    with a miss is read row by row, for ``end`` rows and other id spellings."""
    event_of = spec._event_fields
    by_student: dict[str, tuple[str, list[AssessmentEvent]]] = {}
    end_by_student: dict[str, int] = {}
    try:
        for fields in _field_batches(text):
            student_ids = fields[0::5]
            stamps = list(map(int, fields[4::5]))
            _check_timestamp_ms(min(stamps), "timestamp_ms")
            _check_timestamp_ms(max(stamps), "timestamp_ms")
            # A student's first row of any kind registers them.
            id_of = {s: by_student.setdefault(s, (s, []))[0] for s in dict.fromkeys(student_ids)}
            keys = fields[1::5], fields[2::5], fields[3::5]
            try:
                checked = list(map(event_of.__getitem__, zip(*keys)))
            except KeyError:  # an end row, or another spelling of a question id
                checked = [
                    event_of[key] if key in event_of else None if key == ("", "end", "")
                    else event_of[str(int(key[0])), key[1], key[2]]  # " 3", "03", "+3" are 3
                    for key in zip(*keys)
                ]
                for i in reversed([i for i, row in enumerate(checked) if row is None]):
                    if student_ids[i] in end_by_student:
                        return None
                    end_by_student[student_ids[i]] = stamps[i]
                    del student_ids[i], checked[i], stamps[i]
            rows = zip(map(id_of.__getitem__, student_ids), *zip(*checked), stamps)
            events = map(tuple.__new__, repeat(AssessmentEvent), rows)
            for student_id, run in groupby(events, itemgetter(0)):
                by_student[student_id][1].extend(run)
        # Every check of both constructors is made here, so both are built bare.
        sessions = []
        for student_id, events in by_student.values():
            _check_student_id(student_id)
            events.sort(key=itemgetter(4))  # timestamp_ms
            last = events[-1].timestamp_ms if events else 0
            end = end_by_student.get(student_id, last)
            if end < last:
                return None
            session = object.__new__(StudentSession)
            vars(session).update(student_id=student_id, events=tuple(events), session_end_ms=end)
            sessions.append(session)
    except (KeyError, ValueError, ValidationError, csv.Error):
        return None
    return sessions


def _parse_rows(text: str, spec: QuestionnaireSpec) -> None:
    """Read ``text`` one csv row at a time, from its header, and raise its first
    faulty row's error, located at its line, or else one for the first student
    in first-row order whose end row precedes their last event. Each check reads
    the spec or a constructor's rule; their order picks the fault a row reports."""
    last_by_student: dict[str, int] = {}
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
            _check_timestamp_ms(timestamp_ms, "timestamp_ms")
            if raw_event == "end":
                if raw_qid or raw_option:
                    raise ValidationError(
                        "end rows must leave question_id and option_id empty", field="event"
                    )
                if student_id in end_by_student:
                    raise ValidationError(
                        f"duplicate end row for student {student_id!r}", field="event"
                    )
            elif raw_event not in ("view", "answer"):
                raise ValidationError(f"unknown event kind {raw_event!r}", field="event")
            else:  # a question the spec lacks comes before the row's option
                question = spec.question(_parse_int(raw_qid, "question_id"))
                if raw_event == "answer":
                    question.option(raw_option)
                elif raw_option:
                    raise ValidationError("view rows must leave option_id empty", field="option_id")
            # After the row's own checks: a bad id fails at its student's first sound row.
            _check_student_id(student_id)
            last = last_by_student.setdefault(student_id, 0)  # in first-row order
            if raw_event == "end":
                end_by_student[student_id] = (timestamp_ms, reader.line_num)
            else:
                last_by_student[student_id] = max(last, timestamp_ms)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    except (ParseError, ValidationError) as exc:
        raise exc.locate(line=reader.line_num) from None
    for student_id, last in last_by_student.items():
        end, end_line = end_by_student.get(student_id, (last, None))
        if end < last:
            raise ValidationError(
                f"end row for student {student_id!r} precedes their last event",
                field="timestamp_ms", line=end_line,
            )


def event_log_csv(sessions: Iterable[StudentSession]) -> str:
    """Render sessions to the event CSV format (LF endings, unquoted: no
    admitted student or option id holds a character csv would quote). An
    ``end`` row is added only when the session does not end at its last event.
    """
    lines = [",".join(EVENT_CSV_HEADER)]
    for session in sessions:
        lines += [
            f"{student_id},{question_id},{kind.value},{option_id or ''},{timestamp_ms}"
            for student_id, question_id, kind, option_id, timestamp_ms in session.events
        ]
        if not session.events or session.session_end_ms != session.events[-1].timestamp_ms:
            lines.append(f"{session.student_id},,end,,{session.session_end_ms}")
    lines.append("")
    return "\n".join(lines)
