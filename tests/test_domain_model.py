import copy
import dataclasses
import json
import pickle
import tracemalloc

import pytest

from edumetrics import (
    AssessmentEvent,
    EventKind,
    ParseError,
    StudentSession,
    ValidationError,
    event_log_csv,
    parse_event_log,
    parse_questionnaire,
    profile_from_name,
    serialize_questionnaire,
    simulate_class,
)
from helpers import make_question, make_spec

EVENT_HEADER = "student_id,question_id,event,option_id,timestamp_ms"


def option_doc(letter, weight, deviation=None):
    doc = {"option_id": letter, "ws_weight": weight}
    if deviation is not None:
        doc["lu_deviation"] = deviation
    return doc


def question_doc(qid, weights=(4, 3, 2, 1, 0), **over):
    return {
        "question_id": qid,
        "subject": over.get("subject", "General"),
        "topic_ids": list(over.get("topics", [])),
        "qdi": over.get("qdi", 3),
        "cdi": over.get("cdi", 3),
        "tdi": over.get("tdi", 3),
        "expected_time_s": over.get("expected_time_s", 120),
        "options": [option_doc(l, w) for l, w in zip("abcde", weights)],
    }


def spec_text(questions, max_total_time_s=14400):
    return json.dumps(
        {
            "questionnaire_id": "demo",
            "max_total_time_s": max_total_time_s,
            "questions": questions,
        }
    )


def event_csv(rows):
    return "\n".join([EVENT_HEADER, *rows]) + "\n"


def test_parse_minimal_questionnaire():
    spec = parse_questionnaire(spec_text([question_doc(1)]))
    assert spec.question_count == 1
    weights = {o.option_id: o.ws_weight for o in spec.questions[0].options}
    assert weights == {"a": 4, "b": 3, "c": 2, "d": 1, "e": 0}


def test_omitted_deviation_defaults_follow_weight():
    spec = parse_questionnaire(spec_text([question_doc(1)]))
    deviations = {o.ws_weight: o.lu_deviation for o in spec.questions[0].options}
    assert deviations == {4: 5, 3: 4, 2: 3, 1: 2, 0: 0}


def test_explicit_deviation_kept():
    doc = question_doc(1)
    doc["options"][1]["lu_deviation"] = 2
    spec = parse_questionnaire(spec_text([doc]))
    assert spec.questions[0].options[1].lu_deviation == 2


def test_bad_difficulty_index_names_field_and_question():
    questions = [question_doc(1), question_doc(2), question_doc(3, qdi=2)]
    with pytest.raises(ValidationError) as err:
        parse_questionnaire(spec_text(questions))
    assert err.value.field == "qdi"
    assert err.value.question_id == 3


def test_forty_question_spec_across_ten_subjects():
    subjects = [
        "Portuguese", "English", "Spanish", "History", "Chemistry",
        "Physics", "Sociology", "Maths", "Geography", "Biology",
    ]
    questions = [
        question_doc(i + 1, subject=subjects[i % 10], topics=[i % 7 + 1]) for i in range(40)
    ]
    spec = parse_questionnaire(spec_text(questions))
    assert spec.question_count == 40
    assert len(spec.subjects()) == 10


def test_round_trip_is_identity():
    questions = [
        make_question(1, subject="Maths", topics=(1, 2), qdi=5, cdi=1, expected_time_s=90.5),
        make_question(2, subject="History", topics=(3,), weights=(0, 1, 2, 3, 4)),
    ]
    spec = make_spec(questions)
    assert parse_questionnaire(serialize_questionnaire(spec)) == spec


def test_serialized_spec_bytes():
    """Topic ids sorted, omitted deviations filled in from the weight, times
    as floats, non-ASCII escaped, keys in field order."""
    question = question_doc(
        1, weights=(0, 4), subject="Zoë", topics=[7, -2, 3], qdi=1, tdi=5, expected_time_s=42.5
    )
    spec = parse_questionnaire(spec_text([question], 900), allow_any_option_count=True)
    assert serialize_questionnaire(spec) == """{
  "questionnaire_id": "demo",
  "max_total_time_s": 900.0,
  "questions": [
    {
      "question_id": 1,
      "subject": "Zo\\u00eb",
      "topic_ids": [
        -2,
        3,
        7
      ],
      "qdi": 1,
      "cdi": 3,
      "tdi": 5,
      "expected_time_s": 42.5,
      "options": [
        {
          "option_id": "a",
          "ws_weight": 0,
          "lu_deviation": 0
        },
        {
          "option_id": "b",
          "ws_weight": 4,
          "lu_deviation": 5
        }
      ]
    }
  ]
}
"""


def test_two_correct_options_rejected():
    with pytest.raises(ValidationError) as err:
        parse_questionnaire(spec_text([question_doc(1, weights=(4, 4, 2, 1, 0))]))
    assert err.value.field == "options"
    assert err.value.question_id == 1


def test_option_weight_out_of_range_rejected():
    with pytest.raises(ValidationError) as err:
        parse_questionnaire(spec_text([question_doc(1, weights=(4, 3, 2, 1, 5))]))
    assert err.value.field == "ws_weight"
    assert err.value.question_id == 1


def test_option_count_is_five_unless_relaxed():
    questions = [question_doc(1)]
    questions[0]["options"] = questions[0]["options"][:4]
    with pytest.raises(ValidationError):
        parse_questionnaire(spec_text(questions))
    spec = parse_questionnaire(spec_text(questions), allow_any_option_count=True)
    assert len(spec.questions[0].options) == 4


def test_duplicate_topic_ids_rejected():
    questions = [question_doc(1, topics=[3]), question_doc(2, topics=[17, 17])]
    with pytest.raises(ValidationError) as err:
        parse_questionnaire(spec_text(questions))
    assert err.value.field == "topic_ids"
    assert err.value.question_id == 2


def test_question_ids_must_be_contiguous():
    with pytest.raises(ValidationError) as err:
        parse_questionnaire(spec_text([question_doc(1), question_doc(3)]))
    assert err.value.field == "question_id"


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as err:
        parse_questionnaire('{"questionnaire_id": "x",\n  "max_total_time_s": }')
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"max_total_time_s": ' + "7" * 5000 + "}", "an integer literal has too many digits"),
        ("[" * 200_000, "arrays or objects are nested too deeply"),
    ],
    ids=["5000-digit-integer", "200000-brackets"],
)
def test_unreadable_spec_text_is_a_parse_error(text, reason):
    with pytest.raises(ParseError) as err:
        parse_questionnaire(text)
    assert err.value.reason.startswith(reason)


def test_parse_event_log_single_student():
    spec = make_spec(n=2)
    text = event_csv(["s1,1,answer,a,1000", "s1,2,answer,b,2000"])
    sessions = parse_event_log(text, spec)
    assert len(sessions) == 1
    session = sessions[0]
    assert len(session.events) == 2
    assert session.session_end_ms == 2000
    assert [e.kind for e in session.events] == [EventKind.ANSWER, EventKind.ANSWER]


def test_parse_event_log_interleaved_students():
    spec = make_spec(n=2)
    text = event_csv(
        ["s1,1,answer,a,1000", "s2,1,answer,b,1500", "s1,2,answer,c,2000", "s2,2,view,,1800"]
    )
    sessions = parse_event_log(text, spec)
    assert [s.student_id for s in sessions] == ["s1", "s2"]
    for session in sessions:
        stamps = [e.timestamp_ms for e in session.events]
        assert stamps == sorted(stamps)


def test_parse_event_log_unknown_question():
    spec = make_spec(n=2)
    with pytest.raises(ValidationError) as err:
        parse_event_log(event_csv(["s1,99,answer,a,1000"]), spec)
    assert err.value.field == "question_id"
    assert err.value.line == 2


def test_parse_event_log_unknown_option():
    spec = make_spec(n=2)
    with pytest.raises(ValidationError) as err:
        parse_event_log(event_csv(["s1,1,answer,z,1000"]), spec)
    assert err.value.field == "option_id"


def test_parse_event_log_view_with_option_rejected():
    spec = make_spec(n=2)
    with pytest.raises(ValidationError) as err:
        parse_event_log(event_csv(["s1,1,view,a,1000"]), spec)
    assert err.value.field == "option_id"


def test_parse_event_log_resorts_timestamps_stably():
    spec = make_spec(n=3)
    text = event_csv(
        ["s1,3,answer,a,5000", "s1,1,answer,a,1000", "s1,2,answer,b,1000"]
    )
    session = parse_event_log(text, spec)[0]
    assert [e.question_id for e in session.events] == [1, 2, 3]


def test_parse_event_log_empty_inputs():
    spec = make_spec(n=1)
    assert parse_event_log("", spec) == []
    assert parse_event_log(EVENT_HEADER + "\n", spec) == []


def test_parse_event_log_explicit_end_row():
    spec = make_spec(n=1)
    text = event_csv(["s1,1,answer,a,1000", "s1,,end,,5000"])
    session = parse_event_log(text, spec)[0]
    assert session.session_end_ms == 5000
    assert len(session.events) == 1


def test_end_row_before_last_event_rejected():
    spec = make_spec(n=1)
    text = event_csv(["s1,1,answer,a,9000", "s1,,end,,5000"])
    with pytest.raises(ValidationError):
        parse_event_log(text, spec)


def test_end_row_before_last_event_names_its_line():
    spec = make_spec(n=1)
    text = event_csv(["s1,,end,,5000", "s2,1,answer,a,1", "s1,1,answer,a,9000"])
    with pytest.raises(ValidationError) as err:
        parse_event_log(text, spec)
    assert err.value.field == "timestamp_ms"
    assert err.value.line == 2


def test_malformed_row_reports_line():
    spec = make_spec(n=1)
    with pytest.raises(ParseError) as err:
        parse_event_log(event_csv(["s1,1,answer,a"]), spec)
    assert err.value.line == 2


def test_event_rows_survive_round_trip():
    spec = make_spec(n=3)
    rows = [
        "s2,3,answer,c,400",
        "s1,1,view,,0",
        "s1,1,answer,b,700",
        "s2,1,answer,a,100",
        "s1,1,answer,b,900",
    ]
    sessions = parse_event_log(event_csv(rows), spec)
    emitted = event_log_csv(sessions).strip().split("\n")[1:]
    assert sorted(emitted) == sorted(rows)


def test_resolved_events_reference_the_spec():
    spec = make_spec(n=3)
    rows = ["s1,2,answer,d,10", "s1,3,view,,20"]
    sessions = parse_event_log(event_csv(rows), spec)
    for event in sessions[0].events:
        question = spec.question(event.question_id)
        if event.kind is EventKind.ANSWER:
            assert question.option(event.option_id) is not None


NON_FINITE = [float("inf"), float("-inf"), float("nan"), 10**400]
NON_FINITE_IDS = ["inf", "-inf", "nan", "huge-int"]


@pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
def test_non_finite_expected_time_rejected_with_location(value):
    text = spec_text([question_doc(1), question_doc(2, expected_time_s=value)])
    with pytest.raises(ValidationError) as err:
        parse_questionnaire(text)
    assert err.value.field == "expected_time_s"
    assert err.value.question_id == 2


@pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
def test_non_finite_max_total_time_rejected(value):
    with pytest.raises(ValidationError) as err:
        parse_questionnaire(spec_text([question_doc(1)], max_total_time_s=value))
    assert err.value.field == "max_total_time_s"


def test_infinity_literal_in_spec_text_rejected():
    text = spec_text([question_doc(1)]).replace('"max_total_time_s": 14400', '"max_total_time_s": Infinity')
    assert "Infinity" in text
    with pytest.raises(ValidationError) as err:
        parse_questionnaire(text)
    assert err.value.field == "max_total_time_s"


@pytest.mark.parametrize(
    "rows, line",
    [
        (["s1,,end,,-5"], 2),
        (["s1,1,answer,a,1000", "s1,,end,,-1"], 3),
        (["s1,1,view,,0", "s1,1,answer,a,-20"], 3),
    ],
)
def test_negative_timestamp_rejected_with_line(rows, line):
    with pytest.raises(ValidationError) as err:
        parse_event_log(event_csv(rows), make_spec(n=1))
    assert err.value.field == "timestamp_ms"
    assert err.value.line == line
    assert "precedes" not in str(err.value)


HUGE_TIMESTAMP = "1" + "0" * 400


@pytest.mark.parametrize(
    "rows, line",
    [
        ([f"s1,,end,,{HUGE_TIMESTAMP}"], 2),
        (["s1,1,view,,0", f"s1,1,answer,a,{HUGE_TIMESTAMP}"], 3),
        ([f"s1,1,view,,{HUGE_TIMESTAMP}"], 2),
        (["s1,1,view,,0", f"s1,1,answer,a,{2**63}"], 3),
    ],
    ids=["end", "answer", "view", "just-over"],
)
def test_timestamp_over_bound_rejected_with_line(rows, line):
    with pytest.raises(ValidationError) as err:
        parse_event_log(event_csv(rows), make_spec(n=1))
    assert err.value.field == "timestamp_ms"
    assert err.value.line == line


def test_largest_timestamp_accepted():
    rows = ["s1,1,view,,0", f"s1,1,answer,a,{2**63 - 1}"]
    [session] = parse_event_log(event_csv(rows), make_spec(n=1))
    assert session.session_end_ms == 2**63 - 1


@pytest.mark.parametrize("timestamp_ms, ok", [(2**63 - 1, True), (2**63, False)])
def test_event_constructor_bounds_timestamp(timestamp_ms, ok):
    def build():
        return AssessmentEvent(
            student_id="s1", question_id=1, kind=EventKind.VIEW, option_id=None,
            timestamp_ms=timestamp_ms,
        )

    if ok:
        assert build().timestamp_ms == timestamp_ms
    else:
        with pytest.raises(ValidationError) as err:
            build()
        assert err.value.field == "timestamp_ms"


@pytest.mark.parametrize(
    "text, line",
    [
        (event_csv(["s1,1,view,,0", "s1,1,answer,a," + "1" * 131_073]), 3),
        (event_csv(["s1,1,view,,0", "s\r1,1,view,,5"]), 3),
        ("student_id,question_id,event,option_id,timestamp_" + "m" * 131_073 + "\n", 1),
    ],
    ids=["long-field", "bare-cr", "long-header"],
)
def test_unreadable_csv_row_is_a_located_parse_error(text, line):
    with pytest.raises(ParseError) as err:
        parse_event_log(text, make_spec(n=1))
    assert err.value.line == line


RESERVED_IDS = [("a,b", '"a,b"', 2), ('a"b', '"a""b"', 2), ("a\nb", '"a\nb"', 3)]


@pytest.mark.parametrize(
    "row",
    ["{},1,view,,0", "{},1,answer,a,0", "{},,end,,0"],
    ids=["view", "answer", "end"],
)
@pytest.mark.parametrize(
    "quoted, line", [(q, line) for _, q, line in RESERVED_IDS], ids=["comma", "quote", "lf"]
)
def test_reserved_student_id_rejected_with_line(row, quoted, line):
    with pytest.raises(ValidationError) as err:
        parse_event_log(event_csv([row.format(quoted)]), make_spec(n=1))
    assert err.value.field == "student_id"
    assert err.value.line == line


@pytest.mark.parametrize(
    "row, error, field",
    [
        *[(f"s1,{qid},{kind},{opt},0", ValidationError, "question_id")
          for qid in ("0", "41", "-1") for kind, opt in (("view", ""), ("answer", "a"))],
        *[(f"s1,{qid},{kind},{opt},0", ParseError, None)
          for qid in ("x", "") for kind, opt in (("view", ""), ("answer", "a"))],
        ("s1,1,answer,z,0", ValidationError, "option_id"),
        ("s1,1,answer,,0", ValidationError, "option_id"),
        ("s1,1,answer, a,0", ValidationError, "option_id"),
        ("s1,1,view,a,0", ValidationError, "option_id"),
    ],
)
def test_bad_event_row_rejected_with_field_and_line(row, error, field):
    with pytest.raises(error) as err:
        parse_event_log(event_csv(["s0,1,view,,0", row]), make_spec(n=40))
    assert type(err.value) is error
    assert getattr(err.value, "field", None) == field
    assert err.value.line == 3


@pytest.mark.parametrize("raw", [" 3", "03", "+3", "3 "])
def test_question_id_spellings_name_the_same_question(raw):
    rows = [f"s1,{raw},view,,0", f"s1,{raw},answer,c,5"]
    events = parse_event_log(event_csv(rows), make_spec(n=3))[0].events
    assert [e.question_id for e in events] == [3, 3]


@pytest.mark.parametrize("student_id", [sid for sid, _, _ in RESERVED_IDS])
def test_event_constructor_rejects_reserved_student_id(student_id):
    with pytest.raises(ValidationError) as err:
        AssessmentEvent(
            student_id=student_id, question_id=1, kind=EventKind.VIEW, option_id=None,
            timestamp_ms=0,
        )
    assert err.value.field == "student_id"


@pytest.mark.parametrize(
    "events, end, field",
    [
        ([("s1", 2000), ("s1", 1000)], 3000, "timestamp_ms"),
        ([("s1", 1000), ("s2", 2000)], 3000, "student_id"),
        ([("s1", 1000), ("s1", 2000)], 1500, "session_end_ms"),
    ],
    ids=["out-of-order", "foreign-student", "end-before-last-event"],
)
def test_session_constructor_keeps_its_checks(events, end, field):
    built = [
        AssessmentEvent(
            student_id=student_id, question_id=1, kind=EventKind.VIEW, option_id=None,
            timestamp_ms=stamp,
        )
        for student_id, stamp in events
    ]
    with pytest.raises(ValidationError) as err:
        StudentSession(student_id="s1", events=tuple(built), session_end_ms=end)
    assert err.value.field == field


@pytest.mark.parametrize("student_id", ["", *(sid for sid, _, _ in RESERVED_IDS)])
def test_session_constructor_rejects_an_id_the_log_cannot_carry(student_id):
    # Such a session would render to a log that parse_event_log rejects.
    with pytest.raises(ValidationError) as err:
        StudentSession(student_id, (), 5)
    assert err.value.field == "student_id"


ANSWER = AssessmentEvent("s1", 2, EventKind.ANSWER, "b", 5)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ANSWER._replace(timestamp_ms=-1), "timestamp_ms"),
        (lambda: ANSWER._replace(option_id=None), "option_id"),
        (lambda: AssessmentEvent._make(["", 1, EventKind.VIEW, None, 0]), "student_id"),
    ],
    ids=["replace-timestamp", "replace-option", "make-student-id"],
)
def test_event_checks_its_fields_on_replace_and_make(build, field):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.field == field


def test_event_is_a_named_tuple_with_the_dataclass_fields_and_repr():
    assert AssessmentEvent._fields == (
        "student_id", "question_id", "kind", "option_id", "timestamp_ms"
    )
    assert repr(ANSWER) == (
        "AssessmentEvent(student_id='s1', question_id=2, kind=<EventKind.ANSWER: 'answer'>, "
        "option_id='b', timestamp_ms=5)"
    )
    _, question_id, kind, _, timestamp_ms = ANSWER
    assert (question_id, kind, timestamp_ms) == (ANSWER.question_id, ANSWER.kind, 5)
    assert ANSWER == ("s1", 2, EventKind.ANSWER, "b", 5)
    assert ANSWER._replace(timestamp_ms=7) == ("s1", 2, EventKind.ANSWER, "b", 7)
    for twin in (pickle.loads(pickle.dumps(ANSWER)), copy.copy(ANSWER), copy.deepcopy(ANSWER)):
        assert type(twin) is AssessmentEvent
        assert twin == ANSWER
    with pytest.raises(AttributeError):
        ANSWER.timestamp_ms = 6


def test_asdict_of_a_session_keeps_its_events_as_tuples():
    fields = dataclasses.asdict(StudentSession("s1", (ANSWER,), 5))
    assert fields == {"student_id": "s1", "events": (ANSWER,), "session_end_ms": 5}
    assert type(fields["events"][0]) is AssessmentEvent


def test_parsed_events_share_their_session_id_string():
    rows = [f"{sid},{qid},view,,{ts}" for ts, (sid, qid) in enumerate(
        [("s1", 1), ("s2", 1), ("s1", 2), ("s2", 2), ("s1", 3)]
    )]
    sessions = parse_event_log(event_csv([*rows, "s2,,end,,99"]), make_spec(n=3))
    assert [len(s.events) for s in sessions] == [3, 2]
    for session in sessions:
        assert all(event.student_id is session.student_id for event in session.events)


def test_parse_memory_is_bounded_by_the_sessions():
    # North star: memory is bounded by what the class needs, not by the size of
    # the log. The parse holds no copy of the whole text, and each event holds
    # its student's one id string.
    spec = make_spec(n=40)
    text = event_log_csv(simulate_class(profile_from_name("self-corrector", 5), spec, 220))
    assert len(text) >= 1_000_000
    tracemalloc.start()
    try:
        sessions = parse_event_log(text, spec)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    events = sum(len(session.events) for session in sessions)
    assert peak - retained < len(text)
    assert retained < 145 * events
