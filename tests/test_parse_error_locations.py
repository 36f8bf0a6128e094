"""Property tests: a fault anywhere in an input is reported where it is.

One fault goes into an otherwise valid event log, at a random data row among
random blank lines, or into one field of a random question of a valid spec.
The error must carry that row's physical line, or that question's id.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from edumetrics import (
    ParseError,
    ValidationError,
    event_log_csv,
    parse_event_log,
    parse_questionnaire,
)
from edumetrics import domain_model
from edumetrics.domain_model import MAX_TIMESTAMP_MS
from test_event_log_properties import ADMITTED_IDS, SPEC, sessions_of

# Each fault turns the data row (student id, timestamp) into the faulty row's
# fields, and names the error it must raise, that error's field and its reason.
RESERVED = "contains characters the log format reserves"
ROW_FAULTS = {
    "empty-id": (lambda sid, ts: ["", "1", "view", "", ts], ValidationError, "student_id",
                 "student_id must be non-empty"),
    "comma-id": (lambda sid, ts: ['"s,1"', "1", "view", "", ts], ValidationError, "student_id",
                 f"student_id 's,1' {RESERVED}"),
    "quote-id": (lambda sid, ts: ['"s""1"', "1", "view", "", ts], ValidationError, "student_id",
                 f"student_id 's\"1' {RESERVED}"),
    "timestamp-text": (lambda sid, ts: [sid, "1", "view", "", "1.5"], ParseError, None,
                       "timestamp_ms must be an integer, got '1.5'"),
    "timestamp-negative": (lambda sid, ts: [sid, "1", "view", "", "-1"], ValidationError,
                           "timestamp_ms", "timestamp_ms must be a non-negative integer"),
    "timestamp-too-large": (lambda sid, ts: [sid, "1", "view", "", str(MAX_TIMESTAMP_MS + 1)],
                            ValidationError, "timestamp_ms",
                            f"timestamp_ms must not exceed {MAX_TIMESTAMP_MS}"),
    "unknown-kind": (lambda sid, ts: [sid, "1", "click", "", ts], ValidationError, "event",
                     "unknown event kind 'click'"),
    "question-text": (lambda sid, ts: [sid, "one", "view", "", ts], ParseError, None,
                      "question_id must be an integer, got 'one'"),
    "unknown-question": (lambda sid, ts: [sid, "9", "answer", "a", ts], ValidationError,
                         "question_id", "unknown question_id 9"),
    "unknown-option": (lambda sid, ts: [sid, "1", "answer", "z", ts], ValidationError,
                       "option_id", "unknown option_id 'z'"),
    "view-with-option": (lambda sid, ts: [sid, "2", "view", "a", ts], ValidationError,
                         "option_id", "view rows must leave option_id empty"),
    "end-with-question": (lambda sid, ts: [sid, "1", "end", "", ts], ValidationError, "event",
                          "end rows must leave question_id and option_id empty"),
    "too-few-fields": (lambda sid, ts: [sid, "1", "view", ts], ParseError, None,
                       "expected 5 fields, got 4"),
    "too-many-fields": (lambda sid, ts: [sid, "1", "view", "", ts, ""], ParseError, None,
                        "expected 5 fields, got 6"),
}
FRESH_ID = "dup"  # a drawn id may equal it, so the test that adds it assumes none does


@st.composite
def logs(draw):
    """(lines, indices of the data lines): a valid log with blank lines added."""
    sessions = draw(sessions_of(ADMITTED_IDS))
    # Split on LF only: an admitted id may hold the other line breaks of str.splitlines.
    header, *rows = event_log_csv(sessions)[:-1].split("\n")
    assume(rows)
    lines = [header]
    for row in rows:
        lines.extend([""] * draw(st.integers(min_value=0, max_value=2)))
        lines.append(row)
    lines.extend([""] * draw(st.integers(min_value=0, max_value=2)))
    data = [i for i, line in enumerate(lines) if line]
    return lines, data[1:]


def parse_error(lines):
    with pytest.raises((ParseError, ValidationError)) as err:
        parse_event_log("\n".join(lines) + "\n", SPEC)
    return err.value


@settings(max_examples=150, deadline=None, database=None)
@given(log=logs(), fault=st.sampled_from(sorted(ROW_FAULTS)), data=st.data())
def test_row_fault_is_reported_at_its_line(log, fault, data):
    lines, rows = log
    index = data.draw(st.sampled_from(rows))
    student_id, _, _, _, timestamp = lines[index].split(",")
    make, error, field, reason = ROW_FAULTS[fault]
    lines[index] = ",".join(make(student_id, timestamp))
    err = parse_error(lines)
    assert type(err) is error
    assert (err.reason, err.line) == (reason, index + 1)
    if error is ValidationError:
        assert err.field == field


def outcome(text):
    """The sessions parsed from ``text``, or its error's type, field and line."""
    try:
        return parse_event_log(text, SPEC)
    except (ParseError, ValidationError) as err:
        return type(err), getattr(err, "field", None), err.line


@settings(max_examples=150, deadline=None, database=None)
@given(log=logs(), fault=st.sampled_from([None, *sorted(ROW_FAULTS)]), data=st.data())
def test_chunk_size_changes_no_parse_outcome(log, fault, data):
    lines, rows = log
    if fault is not None:
        index = data.draw(st.sampled_from(rows))
        student_id, _, _, _, timestamp = lines[index].split(",")
        lines[index] = ",".join(ROW_FAULTS[fault][0](student_id, timestamp))
    text = "\n".join(lines) + "\n"
    expected = outcome(text)
    for chunk in (1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(domain_model, "_CHUNK_CHARS", chunk)
            assert outcome(text) == expected


@settings(max_examples=60, deadline=None, database=None)
@given(log=logs(), data=st.data())
def test_duplicate_end_row_is_reported_at_the_second(log, data):
    lines, rows = log
    assume(all(lines[i].split(",")[0] != FRESH_ID for i in rows))
    index = data.draw(st.sampled_from(rows))
    first = data.draw(st.integers(min_value=1, max_value=index))
    lines[index] = f"{FRESH_ID},,end,,0"
    lines.insert(first, f"{FRESH_ID},,end,,0")
    err = parse_error(lines)
    assert (type(err), err.field, err.line) == (ValidationError, "event", index + 2)


@settings(max_examples=60, deadline=None, database=None)
@given(log=logs(), data=st.data())
def test_end_before_the_last_event_is_reported_at_the_end_row(log, data):
    lines, rows = log
    events = [i for i in rows if lines[i].split(",")[2] != "end"]
    assume(events)
    student_id = lines[data.draw(st.sampled_from(events))].split(",")[0]
    last = max(int(lines[i].split(",")[4]) for i in events if lines[i].startswith(student_id + ","))
    assume(last > 0)
    # The student's own end rows go; the early one takes the place of a blank line.
    lines = ["" if line.startswith(f"{student_id},,end,") else line for line in lines]
    blanks = [i for i, line in enumerate(lines) if i and not line]
    assume(blanks)
    index = data.draw(st.sampled_from(blanks))
    lines[index] = f"{student_id},,end,,{last - 1}"
    err = parse_error(lines)
    assert (type(err), err.field, err.line) == (ValidationError, "timestamp_ms", index + 1)


def question_doc(qid):
    return {
        "question_id": qid, "subject": "Maths", "topic_ids": [1, 2], "qdi": 3, "cdi": 3,
        "tdi": 3, "expected_time_s": 60,
        "options": [
            {"option_id": o, "ws_weight": w, "lu_deviation": d}
            for o, w, d in zip("abcde", (4, 3, 2, 1, 0), (5, 4, 3, 2, 0))
        ],
    }


def set_option(index, **fields):
    return lambda question: question["options"][index].update(fields)


# Each fault changes one field of a question (given as its dict) and names
# the field of the error it must raise.
SPEC_FAULTS = {
    "subject-missing": (lambda q: q.pop("subject"), "subject"),
    "subject-number": (lambda q: q.update(subject=3), "subject"),
    "topics-text": (lambda q: q.update(topic_ids="1"), "topic_ids"),
    "topic-text": (lambda q: q.update(topic_ids=["1"]), "topic_ids"),
    "topic-boolean": (lambda q: q.update(topic_ids=[True]), "topic_ids"),
    "topic-duplicate": (lambda q: q.update(topic_ids=[1, 1]), "topic_ids"),
    "qdi-value": (lambda q: q.update(qdi=2), "qdi"),
    "cdi-boolean": (lambda q: q.update(cdi=True), "cdi"),
    "tdi-missing": (lambda q: q.pop("tdi"), "tdi"),
    "time-zero": (lambda q: q.update(expected_time_s=0), "expected_time_s"),
    "time-text": (lambda q: q.update(expected_time_s="60"), "expected_time_s"),
    "time-infinite": (lambda q: q.update(expected_time_s=float("inf")), "expected_time_s"),
    "time-overflow": (lambda q: q.update(expected_time_s=10**400), "expected_time_s"),
    "options-missing": (lambda q: q.pop("options"), "options"),
    "options-empty": (lambda q: q.update(options=[]), "options"),
    "options-object": (lambda q: q.update(options={}), "options"),
    "option-not-object": (lambda q: q["options"].__setitem__(2, 1), "options"),
    "option-id-upper": (set_option(0, option_id="A"), "option_id"),
    "option-id-missing": (lambda q: q["options"][1].pop("option_id"), "option_id"),
    "option-weight-value": (set_option(2, ws_weight=7), "ws_weight"),
    "option-weight-text": (set_option(3, ws_weight="1"), "ws_weight"),
    "option-deviation": (set_option(4, lu_deviation=1), "lu_deviation"),
    "two-correct": (set_option(1, ws_weight=4), "options"),
}


@settings(max_examples=150, deadline=None, database=None)
@given(
    count=st.integers(min_value=1, max_value=6),
    fault=st.sampled_from(sorted(SPEC_FAULTS)),
    allow_any_option_count=st.booleans(),
    data=st.data(),
)
def test_question_fault_names_its_question(count, fault, allow_any_option_count, data):
    qid = data.draw(st.integers(min_value=1, max_value=count))
    questions = [question_doc(i) for i in range(1, count + 1)]
    change, field = SPEC_FAULTS[fault]
    change(questions[qid - 1])
    doc = {"questionnaire_id": "q", "max_total_time_s": 600, "questions": questions}
    with pytest.raises(ValidationError) as err:
        parse_questionnaire(json.dumps(doc), allow_any_option_count=allow_any_option_count)
    assert (err.value.field, err.value.question_id, err.value.line) == (field, qid, None)
