"""Each check below raises its documented error type, with the ``field`` and
``line`` that locate it where the error carries them. The table covers raise
sites that the other in-process tests do not reach."""

import json
from dataclasses import replace

import pytest

from edumetrics import (
    AnswerOption,
    AssessmentEvent,
    BehaviorKind,
    BehaviorProfile,
    ComprehensionInputs,
    DomainError,
    EventKind,
    QuestionResponse,
    QuestionSubset,
    QuestionnaireSpec,
    SimulationError,
    SplitMix64,
    ValidationError,
    approval_split,
    build_grouping,
    classify_quadrant,
    classify_response_time,
    effective_comprehension_level,
    max_comprehension_level,
    parse_event_log,
    parse_questionnaire,
    questionnaire_comprehension_level,
    simulate_class,
    simulate_student,
    traditional_score,
)
from helpers import make_option, make_question, make_spec

QUESTION = make_question(1, subject="Maths", topics=(1,))
SPEC = make_spec([QUESTION])
PROFILE = BehaviorProfile(kind=BehaviorKind.ASSURED, seed=1)
NAN = float("nan")


def event(**over):
    fields = dict(
        student_id="s1", question_id=1, kind=EventKind.VIEW, option_id=None, timestamp_ms=0
    )
    return AssessmentEvent(**{**fields, **over})


def comprehension(**over):
    fields = dict(qdi=3, cdi=3, w=4, srt_s=10.0, expected_time_s=60.0)
    return ComprehensionInputs(**{**fields, **over})


def spec_with_topics(topic_ids):
    question = {
        "question_id": 1, "subject": "Maths", "topic_ids": topic_ids, "qdi": 3, "cdi": 3,
        "tdi": 3, "expected_time_s": 60,
        "options": [{"option_id": o, "ws_weight": w} for o, w in zip("abcde", (4, 3, 2, 1, 0))],
    }
    doc = {"questionnaire_id": "q", "max_total_time_s": 600, "questions": [question]}
    return parse_questionnaire(json.dumps(doc))


def events(*rows):
    header = "student_id,question_id,event,option_id,timestamp_ms"
    return parse_event_log("\n".join([header, *rows]), SPEC)


CASES = [
    # domain_model
    pytest.param(lambda: AnswerOption("A", 4, 5), ValidationError, "option_id", None, id="option-id"),
    pytest.param(lambda: AnswerOption("a", 4, 1), ValidationError, "lu_deviation", None,
                 id="option-deviation"),
    pytest.param(lambda: replace(QUESTION, question_id=0), ValidationError, "question_id", None,
                 id="question-id"),
    pytest.param(lambda: replace(QUESTION, options=()), ValidationError, "options", None,
                 id="question-without-options"),
    pytest.param(lambda: replace(QUESTION, options=(make_option("a", 4), make_option("a", 0))),
                 ValidationError, "options", None, id="question-duplicate-option"),
    pytest.param(lambda: QUESTION.option("z"), ValidationError, "option_id", None,
                 id="question-unknown-option"),
    pytest.param(lambda: QuestionnaireSpec("q", (), 600.0), ValidationError, "questions", None,
                 id="questionnaire-without-questions"),
    pytest.param(lambda: event(student_id=""), ValidationError, "student_id", None,
                 id="event-empty-student"),
    pytest.param(lambda: event(question_id=0), ValidationError, "question_id", None,
                 id="event-question-id"),
    pytest.param(lambda: event(timestamp_ms=-1), ValidationError, "timestamp_ms", None,
                 id="event-timestamp"),
    pytest.param(lambda: event(kind=EventKind.ANSWER), ValidationError, "option_id", None,
                 id="event-answer-without-option"),
    pytest.param(lambda: event(option_id="a"), ValidationError, "option_id", None,
                 id="event-view-with-option"),
    pytest.param(lambda: spec_with_topics(["1"]), ValidationError, "topic_ids", None,
                 id="spec-topic-not-integer"),
    pytest.param(lambda: spec_with_topics([True]), ValidationError, "topic_ids", None,
                 id="spec-topic-boolean"),
    pytest.param(lambda: events("s1,1,end,,5"), ValidationError, "event", 2,
                 id="log-end-with-question"),
    pytest.param(lambda: events("s1,,end,a,5"), ValidationError, "event", 2,
                 id="log-end-with-option"),
    pytest.param(lambda: events("s1,,end,,5", "s1,1,view,,0", "s1,,end,,6"), ValidationError,
                 "event", 4, id="log-duplicate-end"),
    # analytics
    pytest.param(lambda: build_grouping(0), DomainError, None, None, id="grouping-no-students"),
    pytest.param(lambda: approval_split([0.5], 1.5), DomainError, None, None, id="approval-threshold"),
    pytest.param(lambda: classify_quadrant(1.5, 0.5), DomainError, None, None, id="quadrant-ad"),
    pytest.param(lambda: classify_quadrant(0.5, -0.1), DomainError, None, None, id="quadrant-qucl"),
    pytest.param(lambda: classify_quadrant(0.9, 0.9, NAN), DomainError, None, None,
                 id="quadrant-threshold-nan"),
    pytest.param(lambda: classify_quadrant(0.9, 0.9, -1.0), DomainError, None, None,
                 id="quadrant-threshold-negative"),
    # composite_metrics
    pytest.param(lambda: comprehension(qdi=2), DomainError, None, None, id="comprehension-qdi"),
    pytest.param(lambda: comprehension(cdi=2), DomainError, None, None, id="comprehension-cdi"),
    pytest.param(lambda: comprehension(w=5), DomainError, None, None, id="comprehension-weight"),
    pytest.param(lambda: comprehension(srt_s=-1.0), DomainError, None, None, id="comprehension-srt"),
    pytest.param(lambda: comprehension(srt_s=NAN), DomainError, None, None,
                 id="comprehension-srt-nan"),
    pytest.param(lambda: comprehension(expected_time_s=0.0), DomainError, None, None,
                 id="comprehension-expected-time"),
    pytest.param(lambda: max_comprehension_level(2, 3), DomainError, None, None, id="mcl-indices"),
    pytest.param(lambda: effective_comprehension_level(3, 2, 4), DomainError, None, None,
                 id="ecl-indices"),
    pytest.param(lambda: effective_comprehension_level(3, 3, 5), DomainError, None, None,
                 id="ecl-weight"),
    pytest.param(lambda: questionnaire_comprehension_level([0.5], 1.5, 1), DomainError, None, None,
                 id="qucl-assurance"),
    # isolated_metrics
    pytest.param(lambda: QuestionSubset((1, 1)), DomainError, None, None, id="subset-duplicate"),
    pytest.param(lambda: QuestionSubset.for_subject(SPEC, "History"), DomainError, None, None,
                 id="subset-unknown-subject"),
    pytest.param(lambda: QuestionSubset.for_topic(SPEC, 9), DomainError, None, None,
                 id="subset-unknown-topic"),
    pytest.param(lambda: traditional_score({}, SPEC, [1]), DomainError, None, None,
                 id="score-missing-response"),
    # literature_metrics
    pytest.param(lambda: classify_response_time(1.0, 0.0), DomainError, None, None,
                 id="response-time-expected"),
    pytest.param(lambda: classify_response_time(NAN, 60.0), DomainError, None, None,
                 id="response-time-nan"),
    pytest.param(lambda: classify_response_time(-5.0, 60.0), DomainError, None, None,
                 id="response-time-negative"),
    # simulator
    pytest.param(lambda: SplitMix64(1).below(0), DomainError, None, None, id="rng-below-zero"),
    pytest.param(lambda: SplitMix64(1).randint(3, 2), DomainError, None, None, id="rng-empty-range"),
    pytest.param(lambda: replace(PROFILE, markings_range=(0, 2)), DomainError, None, None,
                 id="profile-markings-low"),
    pytest.param(lambda: replace(PROFILE, markings_range=(3, 2)), DomainError, None, None,
                 id="profile-markings-order"),
    pytest.param(lambda: replace(PROFILE, markings_per_question=(0,)), DomainError, None, None,
                 id="profile-per-question-markings"),
    pytest.param(
        lambda: simulate_student(
            replace(PROFILE, kind=BehaviorKind.GUESSER),
            make_spec([make_question(1, expected_time_s=0.001)]),
        ),
        SimulationError, None, None, id="schedule-no-millisecond",
    ),
    pytest.param(lambda: simulate_class(PROFILE, SPEC, -1), DomainError, None, None,
                 id="simulate-negative-count"),
    # session_derivation
    pytest.param(lambda: QuestionResponse(1, -2, None, 0.0), DomainError, None, None,
                 id="response-markings-negative"),
    pytest.param(lambda: QuestionResponse(1, 0, None, NAN), DomainError, None, None,
                 id="response-srt-nan"),
    pytest.param(lambda: QuestionResponse(1, 0, None, -5.0), DomainError, None, None,
                 id="response-srt-negative"),
    pytest.param(lambda: QuestionResponse(1, 0, None, float("inf")), DomainError, None, None,
                 id="response-srt-infinite"),
]


@pytest.mark.parametrize("call, error, field, line", CASES)
def test_raise_site(call, error, field, line):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    if error is ValidationError:
        assert (err.value.field, err.value.line) == (field, line)
