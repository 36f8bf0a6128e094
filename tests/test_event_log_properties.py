"""Property tests: valid sessions survive the event CSV round trip, and the
parser's chunked reader yields the lines of one ``io.StringIO``."""

import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from edumetrics import (
    AssessmentEvent,
    EventKind,
    StudentSession,
    event_log_csv,
    parse_event_log,
)
from edumetrics import domain_model
from helpers import make_question, make_spec

SPEC = make_spec(
    questions=[make_question(1), make_question(2, weights=(0, 1, 2, 3, 4)),
               make_question(3, weights=(4, 0))]
)
STUDENT_IDS = st.text(alphabet="abcxyz019 -_.é", min_size=1, max_size=6)
TIMESTAMPS = st.integers(min_value=0, max_value=10**12)


@st.composite
def events_of(draw, student_id):
    question = draw(st.sampled_from(SPEC.questions))
    if draw(st.booleans()):
        kind, option_id = EventKind.ANSWER, draw(st.sampled_from(question.options)).option_id
    else:
        kind, option_id = EventKind.VIEW, None
    return AssessmentEvent(
        student_id=student_id, question_id=question.question_id, kind=kind,
        option_id=option_id, timestamp_ms=draw(TIMESTAMPS),
    )


@st.composite
def sessions_of(draw):
    sessions = []
    for student_id in draw(st.lists(STUDENT_IDS, max_size=4, unique=True)):
        events = draw(st.lists(events_of(student_id), max_size=8))
        events.sort(key=lambda e: e.timestamp_ms)
        last = events[-1].timestamp_ms if events else 0
        end = last + draw(st.sampled_from([0, 0, 1, 5000]))
        sessions.append(StudentSession(student_id=student_id, events=events, session_end_ms=end))
    return sessions


def interleave(draw, text):
    """Shuffle the data rows of ``text`` while keeping each student's rows in order."""
    header, *rows = text.splitlines()
    queues = {}
    for row in rows:
        queues.setdefault(row.split(",")[0], []).append(row)
    out = []
    while queues:
        student = draw(st.sampled_from(sorted(queues)))
        out.append(queues[student].pop(0))
        if not queues[student]:
            del queues[student]
    return "\n".join([header, *out]) + "\n"


@settings(max_examples=60, deadline=None, database=None)
@given(sessions=sessions_of(), data=st.data())
def test_event_log_round_trip(sessions, data):
    text = event_log_csv(sessions)
    parsed = parse_event_log(text, SPEC)
    assert parsed == sessions
    for session in parsed:
        assert session == StudentSession(
            student_id=session.student_id, events=session.events,
            session_end_ms=session.session_end_ms,
        )
        for event in session.events:
            assert type(event) is AssessmentEvent
            rebuilt = AssessmentEvent(
                student_id=event.student_id, question_id=event.question_id, kind=event.kind,
                option_id=event.option_id, timestamp_ms=event.timestamp_ms,
            )
            assert hash(event) == hash(rebuilt)
    mixed = parse_event_log(interleave(data.draw, text), SPEC)
    assert {s.student_id: s for s in mixed} == {s.student_id: s for s in sessions}


@settings(max_examples=300, deadline=None, database=None)
@given(
    text=st.text(alphabet='a,"\n\r', max_size=60),
    chunk=st.sampled_from([1, 2, 7, domain_model._CHUNK_CHARS]),
)
def test_chunked_lines_equal_the_lines_of_one_stringio(text, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(domain_model, "_CHUNK_CHARS", chunk)
        assert list(domain_model._lines(text)) == list(io.StringIO(text, newline=None))
