"""Each check below raises its documented error type, with the ``field`` and
``line`` that locate it where the error carries them. The table covers raise
sites that the other in-process tests do not reach."""

import inspect
import json
import math
from dataclasses import replace
from enum import Enum
from functools import partial
from typing import get_args, get_type_hints

import pytest

import edumetrics
from edumetrics import (
    AnswerOption,
    AssessmentEvent,
    BehaviorKind,
    BehaviorProfile,
    ComprehensionInputs,
    DomainError,
    EventKind,
    LuInputs,
    QuestionResponse,
    QuestionSpec,
    QuestionSubset,
    QuestionnaireSpec,
    ResponseTimeClass,
    ScoreSeries,
    SimulationError,
    SplitMix64,
    SrtMode,
    StudentSession,
    ValidationError,
    approval_split,
    assign_group,
    assurance_degree,
    build_grouping,
    classify_quadrant,
    classify_response_time,
    comprehension_for_subset,
    derive_answer_sequence,
    derive_responses,
    difficulty_level,
    disorder_summary,
    effective_comprehension_level,
    error_rate,
    max_comprehension_level,
    parse_event_log,
    parse_questionnaire,
    priority,
    profile_from_name,
    questionnaire_comprehension_level,
    rank_priorities,
    simulate_class,
    simulate_student,
    srt_vs_expected,
    student_response_time,
    traditional_score,
    weighted_score,
)
from edumetrics.domain_model import DIFFICULTY_INDICES, LU_DEVIATIONS, MAX_TIMESTAMP_MS, WS_WEIGHTS
from edumetrics.reporting import compute_student
from edumetrics.simulator import MASK64
from helpers import make_option, make_question, make_spec

QUESTION = make_question(1, subject="Maths", topics=(1,))
SPEC = make_spec([QUESTION])
PROFILE = BehaviorProfile(kind=BehaviorKind.ASSURED, seed=1)
NAN = float("nan")
INF = math.inf
HUGE = 10**400  # an int too large for a float: math.inf exceeds it, float() overflows
UNPRINTABLE = 10**5000  # past the interpreter's digit cap: str() of it raises ValueError


def event(**over):
    fields = dict(
        student_id="s1", question_id=1, kind=EventKind.VIEW, option_id=None, timestamp_ms=0
    )
    return AssessmentEvent(**{**fields, **over})


def session(**over):
    """A session of one event, ``event(**over)``."""
    return StudentSession("s1", (event(**over),), 0)


def answer_9():
    return session(question_id=9, kind=EventKind.ANSWER, option_id="a")


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
    # Booleans are ints, but serialize_questionnaire would write them as true/false.
    pytest.param(lambda: AnswerOption("a", True, 5), ValidationError, "ws_weight", None,
                 id="option-weight-boolean"),
    pytest.param(lambda: AnswerOption("e", 0, False), ValidationError, "lu_deviation", None,
                 id="option-deviation-boolean"),
    pytest.param(lambda: replace(QUESTION, question_id=True), ValidationError, "question_id", None,
                 id="question-id-boolean"),
    pytest.param(lambda: replace(QUESTION, qdi=True), ValidationError, "qdi", None,
                 id="question-qdi-boolean"),
    pytest.param(lambda: replace(QUESTION, expected_time_s=True), ValidationError,
                 "expected_time_s", None, id="question-expected-time-boolean"),
    pytest.param(lambda: QuestionnaireSpec("q", (QUESTION,), True), ValidationError,
                 "max_total_time_s", None, id="questionnaire-time-boolean"),
    pytest.param(lambda: replace(QUESTION, expected_time_s=HUGE), ValidationError,
                 "expected_time_s", None, id="question-expected-time-huge"),
    pytest.param(lambda: QuestionnaireSpec("q", (QUESTION,), HUGE), ValidationError,
                 "max_total_time_s", None, id="questionnaire-time-huge"),
    pytest.param(lambda: replace(QUESTION, options=()), ValidationError, "options", None,
                 id="question-without-options"),
    pytest.param(lambda: replace(QUESTION, options=(make_option("a", 4), make_option("a", 0))),
                 ValidationError, "options", None, id="question-duplicate-option"),
    pytest.param(lambda: QUESTION.option("z"), ValidationError, "option_id", None,
                 id="question-unknown-option"),
    # A question built in Python meets the JSON's topic-id rules too.
    pytest.param(lambda: replace(QUESTION, topic_ids={1, "x"}), ValidationError, "topic_ids", None,
                 id="question-topic-not-integer"),
    pytest.param(lambda: replace(QUESTION, topic_ids=[True]), ValidationError, "topic_ids", None,
                 id="question-topic-boolean"),
    pytest.param(lambda: replace(QUESTION, topic_ids=[2.5]), ValidationError, "topic_ids", None,
                 id="question-topic-float"),
    pytest.param(lambda: replace(QUESTION, topic_ids=[1, 1]), ValidationError, "topic_ids", None,
                 id="question-topic-duplicate"),
    pytest.param(lambda: QuestionnaireSpec("q", (), 600.0), ValidationError, "questions", None,
                 id="questionnaire-without-questions"),
    pytest.param(lambda: event(student_id=""), ValidationError, "student_id", None,
                 id="event-empty-student"),
    pytest.param(lambda: event(question_id=0), ValidationError, "question_id", None,
                 id="event-question-id"),
    pytest.param(lambda: event(timestamp_ms=-1), ValidationError, "timestamp_ms", None,
                 id="event-timestamp"),
    # event_log_csv would write this event as "s1,True,view,,False".
    pytest.param(lambda: AssessmentEvent("s1", True, EventKind.VIEW, None, False), ValidationError,
                 "question_id", None, id="event-question-boolean"),
    pytest.param(lambda: event(timestamp_ms=False), ValidationError, "timestamp_ms", None,
                 id="event-timestamp-boolean"),
    # event_log_csv would write these session ends as end rows that parse_event_log rejects.
    pytest.param(lambda: StudentSession("s1", (), 2**70), ValidationError, "session_end_ms", None,
                 id="session-end-too-large"),
    pytest.param(lambda: StudentSession("s1", (), 1.5), ValidationError, "session_end_ms", None,
                 id="session-end-not-integer"),
    pytest.param(lambda: StudentSession("s1", (), True), ValidationError, "session_end_ms", None,
                 id="session-end-boolean"),
    pytest.param(lambda: event(kind=EventKind.ANSWER), ValidationError, "option_id", None,
                 id="event-answer-without-option"),
    pytest.param(lambda: event(option_id="a"), ValidationError, "option_id", None,
                 id="event-view-with-option"),
    # event_log_csv cannot write the first, and writes the second as a row parse_event_log rejects.
    pytest.param(lambda: AssessmentEvent("s1", 1, "view", None, 5), ValidationError, "kind", None,
                 id="event-kind-not-enum"),
    pytest.param(lambda: AssessmentEvent("s1", 1, EventKind.ANSWER, "a,b", 5), ValidationError,
                 "option_id", None, id="event-option-not-a-letter"),
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
    pytest.param(lambda: build_grouping(2.5), DomainError, None, None, id="grouping-count-float"),
    pytest.param(lambda: build_grouping(True), DomainError, None, None,
                 id="grouping-count-boolean"),
    pytest.param(lambda: build_grouping(INF), DomainError, None, None,
                 id="grouping-count-infinite"),
    # math.sqrt of it overflowed, and a count past 2**32 built a bound per group.
    pytest.param(lambda: build_grouping(HUGE), DomainError, None, None,
                 id="grouping-count-huge"),
    pytest.param(lambda: approval_split([0.5], 1.5), DomainError, None, None, id="approval-threshold"),
    pytest.param(lambda: approval_split([NAN], 0.5), DomainError, None, None,
                 id="approval-value-nan"),
    pytest.param(lambda: approval_split([INF], 0.5), DomainError, None, None,
                 id="approval-value-infinite"),
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
    # Each time is finite: errors.check_times states the rule, with errors.FLOAT_MAX.
    pytest.param(lambda: comprehension(srt_s=math.inf), DomainError, None, None,
                 id="comprehension-srt-infinite"),
    pytest.param(lambda: comprehension(expected_time_s=math.inf), DomainError, None, None,
                 id="comprehension-expected-time-infinite"),
    pytest.param(lambda: comprehension(srt_s=HUGE), DomainError, None, None,
                 id="comprehension-srt-huge"),
    pytest.param(lambda: comprehension(expected_time_s=HUGE), DomainError, None, None,
                 id="comprehension-expected-time-huge"),
    # No bool is a number: True == 1, but no time, score or level is a bool.
    pytest.param(lambda: comprehension(srt_s=True), DomainError, None, None,
                 id="comprehension-srt-boolean"),
    pytest.param(lambda: comprehension(expected_time_s=True), DomainError, None, None,
                 id="comprehension-expected-time-boolean"),
    pytest.param(lambda: QuestionResponse(1, 0, None, True), DomainError, None, None,
                 id="response-srt-boolean"),
    pytest.param(lambda: max_comprehension_level(2, 3), DomainError, None, None, id="mcl-indices"),
    pytest.param(lambda: effective_comprehension_level(3, 2, 4), DomainError, None, None,
                 id="ecl-indices"),
    pytest.param(lambda: effective_comprehension_level(3, 3, 5), DomainError, None, None,
                 id="ecl-weight"),
    pytest.param(lambda: questionnaire_comprehension_level([0.5], 1.5, 1), DomainError, None, None,
                 id="qucl-assurance"),
    pytest.param(lambda: questionnaire_comprehension_level([NAN], 0.5, 1), DomainError, None, None,
                 id="qucl-level-nan"),
    pytest.param(lambda: questionnaire_comprehension_level([5.0], 1.0, 1), DomainError, None, None,
                 id="qucl-level-above-one"),
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
    pytest.param(lambda: classify_response_time(math.inf, 60.0), DomainError, None, None,
                 id="response-time-infinite"),
    pytest.param(lambda: classify_response_time(1.0, math.inf), DomainError, None, None,
                 id="response-time-expected-infinite"),
    pytest.param(lambda: difficulty_level([INF]), DomainError, None, None,
                 id="difficulty-infinite"),
    # Finite rates whose sum overflows: math.fsum would raise OverflowError.
    pytest.param(lambda: difficulty_level([1.7e308, 1.7e308]), DomainError, None, None,
                 id="difficulty-sum-overflow"),
    # A NaN after the first score, where min and max alone would miss it.
    pytest.param(lambda: ScoreSeries("s1", "Maths", (5.0, NAN)), DomainError, None, None,
                 id="score-series-nan"),
    # simulator
    pytest.param(lambda: SplitMix64(1).below(0), DomainError, None, None, id="rng-below-zero"),
    pytest.param(lambda: SplitMix64(1).randint(3, 2), DomainError, None, None, id="rng-empty-range"),
    pytest.param(lambda: replace(PROFILE, markings_range=(0, 2)), DomainError, None, None,
                 id="profile-markings-low"),
    pytest.param(lambda: replace(PROFILE, markings_range=(3, 2)), DomainError, None, None,
                 id="profile-markings-order"),
    pytest.param(lambda: replace(PROFILE, markings_per_question=(0,)), DomainError, None, None,
                 id="profile-per-question-markings"),
    # The knobs were unpacked or iterated before their shape was checked.
    pytest.param(lambda: replace(PROFILE, markings_range=(1,)), DomainError, None, None,
                 id="profile-markings-range-one-item"),
    pytest.param(lambda: replace(PROFILE, markings_range=5), DomainError, None, None,
                 id="profile-markings-range-int"),
    pytest.param(lambda: replace(PROFILE, markings_per_question=5), DomainError, None, None,
                 id="profile-per-question-int"),
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
    pytest.param(lambda: QuestionResponse(1, 0, None, HUGE), DomainError, None, None,
                 id="response-srt-huge"),
    # Question 9 of the one-question SPEC, in an event the mode reads.
    pytest.param(lambda: derive_responses(session(question_id=9), SPEC, SrtMode.VIEW_INTERVALS),
                 DomainError, None, None, id="derive-view-unknown-question"),
    pytest.param(lambda: derive_responses(answer_9(), SPEC, SrtMode.ANSWER_INTERVALS),
                 DomainError, None, None, id="derive-answer-unknown-question"),
    # The mode is required: None resolved it per session, and other values timed by answers.
    pytest.param(lambda: derive_responses(session(), SPEC, None), DomainError, None, None,
                 id="derive-mode-none"),
    pytest.param(lambda: derive_responses(session(), SPEC, "view"), DomainError, None, None,
                 id="derive-mode-string"),
    # analytics: each student's responses are read through isolated_metrics._gather.
    pytest.param(lambda: srt_vs_expected([{}], SPEC, [1]), DomainError, None, None,
                 id="srt-vs-expected-no-response"),
    pytest.param(lambda: srt_vs_expected([{}], SPEC, [9]), DomainError, None, None,
                 id="srt-vs-expected-unknown-question"),
    # reporting
    pytest.param(lambda: compute_student(answer_9(), SPEC, SrtMode.ANSWER_INTERVALS),
                 DomainError, None, None, id="compute-unknown-question"),
    # Integers: each input is an int, not a bool, of its set or range (errors.check_int).
    pytest.param(lambda: effective_comprehension_level(True, 3, 4), DomainError, None, None,
                 id="ecl-qdi-boolean"),
    pytest.param(lambda: effective_comprehension_level(5, 5, 4.0), DomainError, None, None,
                 id="ecl-weight-float"),
    pytest.param(lambda: ComprehensionInputs(True, 3, 4, 1.0, 60.0), DomainError, None, None,
                 id="comprehension-qdi-boolean"),
    # A response-time class of 0 divided the understanding product by zero.
    pytest.param(lambda: LuInputs(1, 1, 1, 2, 0), DomainError, None, None,
                 id="lu-time-class-not-enum"),
    pytest.param(lambda: AnswerOption("a", 4.0, 5), ValidationError, "ws_weight", None,
                 id="option-weight-float"),
    pytest.param(lambda: QuestionResponse(1, 1.5, make_option("a", 4), 0.0), DomainError, None,
                 None, id="response-markings-float"),
    pytest.param(lambda: QuestionResponse(-3, 0, None, 0.0), DomainError, None, None,
                 id="response-question-id-negative"),
    pytest.param(lambda: QuestionSubset((True,)), DomainError, None, None, id="subset-boolean"),
    pytest.param(lambda: QuestionSubset((1.5,)), DomainError, None, None, id="subset-float"),
    pytest.param(lambda: SPEC.question(True), ValidationError, "question_id", None,
                 id="spec-question-boolean"),
    pytest.param(lambda: SplitMix64(1).randint(1, 2.5), DomainError, None, None,
                 id="rng-randint-float"),
    pytest.param(lambda: SplitMix64(1).below(True), DomainError, None, None,
                 id="rng-below-boolean"),
    # Every draw would be rejected: below(n) for n past 2**64 did not return.
    pytest.param(lambda: SplitMix64(1).below(2**64 + 1), DomainError, None, None,
                 id="rng-below-past-64-bits"),
    pytest.param(lambda: simulate_class(PROFILE, SPEC, True), DomainError, None, None,
                 id="simulate-count-boolean"),
    pytest.param(lambda: profile_from_name("assured", 1.5), DomainError, None, None,
                 id="profile-seed-float"),
    pytest.param(lambda: replace(PROFILE, markings_range=(1.5, 2)), DomainError, None, None,
                 id="profile-markings-float"),
    pytest.param(lambda: questionnaire_comprehension_level([0.5], 0.5, True), DomainError, None,
                 None, id="qucl-count-boolean"),
    # A refused int too long to print is shown by its size, not by a ValueError.
    pytest.param(lambda: priority(UNPRINTABLE, 1.0), DomainError, None, None,
                 id="priority-unprintable"),
    pytest.param(lambda: QuestionResponse(1, 0, None, UNPRINTABLE), DomainError, None, None,
                 id="response-srt-unprintable"),
    pytest.param(lambda: AnswerOption("a", UNPRINTABLE, 5), ValidationError, "ws_weight", None,
                 id="option-weight-unprintable"),
    pytest.param(lambda: SPEC.question(UNPRINTABLE), ValidationError, "question_id", None,
                 id="spec-question-unprintable"),
    pytest.param(lambda: effective_comprehension_level(3, 3, UNPRINTABLE), DomainError, None, None,
                 id="ecl-weight-unprintable"),
    pytest.param(lambda: build_grouping(-UNPRINTABLE), DomainError, None, None,
                 id="grouping-count-unprintable"),
]


# Each exported function that takes a float: a valid call, and the range of
# each numeric parameter, (low, high). Every accepted number is finite, so an
# infinite bound is open; so is the expected time's 0.
FLOAT_INPUTS = {
    approval_split: (([0.5, 0.5], 0.5), {"values": (0, 1), "threshold": (0, 1)}),
    assign_group: ((0.5, build_grouping(4)), {"value": (0, 1)}),
    classify_quadrant: ((0.5, 0.5, 0.5), {"ad": (0, 1), "qucl": (0, 1), "threshold": (0, 1)}),
    classify_response_time: ((10.0, 60.0), {"srt_s": (0, INF), "expected_time_s": (0, INF)}),
    difficulty_level: (([0.5, 0.5],), {"slrs": (-INF, INF)}),
    error_rate: ((5.0,), {"ts": (0, 10)}),
    priority: ((5.0, 5.0), {"ts": (0, 10), "ws": (0, 10)}),
    questionnaire_comprehension_level: (([0.5, 0.5], 0.5, 2), {"qcls": (0, 1), "ad": (0, 1)}),
    rank_priorities: (({"Maths": [(5.0, 5.0)]},), {"per_element_ts_ws": (0, 10)}),
}


def valid_arguments(function, table=FLOAT_INPUTS) -> dict:
    """The arguments of the table's valid call of ``function``, by parameter name."""
    return inspect.signature(function).bind(*table[function][0]).arguments


def with_each(value, replace_number):
    """Copies of ``value`` with one of its numbers, ``n``, replaced by
    ``replace_number(n)``, one copy per number."""
    if isinstance(value, (int, float)):
        yield replace_number(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            for new in with_each(item, replace_number):
                yield {**value, key: new}
    else:
        for i, item in enumerate(value):
            for new in with_each(item, replace_number):
                yield type(value)([*value[:i], new, *value[i + 1:]])


def range_cases():
    """Per numeric input: NaN, both infinities, an int too large for a float of
    each sign, ``True`` and a finite value past each finite bound, in each
    position of a sequence, in an otherwise valid call."""
    for function, (_, ranges) in FLOAT_INPUTS.items():
        arguments = valid_arguments(function)
        for name, (lo, hi) in ranges.items():
            bad = [NAN, INF, -INF] + [b for b in (lo - 1, hi + 1) if math.isfinite(b)]
            for x, shown in [*((b, b) for b in bad), (HUGE, "huge"), (-HUGE, "-huge"), (True, "bool")]:
                for i, value in enumerate(with_each(arguments[name], lambda _: x)):
                    call = partial(function, **{**arguments, name: value})
                    yield pytest.param(call, DomainError, None, None,
                                       id=f"{function.__name__}-{name}-{shown}-{i}")


CASES += range_cases()

RESPONSES = derive_responses(session(), SPEC, SrtMode.VIEW_INTERVALS)
SEQUENCE = derive_answer_sequence(session(kind=EventKind.ANSWER, option_id="a"))

# Each exported function, checked constructor and checked method that takes an
# int: a valid call, and the set (a frozenset) or range ((low, high), None for an
# open end) of each integer parameter, or of each int in it.
INT_INPUTS = {
    AnswerOption: (("a", 4, 5), {"ws_weight": frozenset(WS_WEIGHTS),
                                 "lu_deviation": frozenset(LU_DEVIATIONS)}),
    AssessmentEvent: (("s1", 1, EventKind.VIEW, None, 0),
                      {"question_id": (1, None), "timestamp_ms": (0, MAX_TIMESTAMP_MS)}),
    QuestionSpec: ((1, "Maths", [1, 2], 3, 3, 3, 60.0, QUESTION.options),
                   {"question_id": (1, None), "topic_ids": (None, None),
                    "qdi": frozenset(DIFFICULTY_INDICES), "cdi": frozenset(DIFFICULTY_INDICES),
                    "tdi": frozenset(DIFFICULTY_INDICES)}),
    SPEC.question: ((1,), {"question_id": (1, 1)}),
    StudentSession: (("s1", (), 0), {"session_end_ms": (0, MAX_TIMESTAMP_MS)}),
    build_grouping: ((4,), {"student_count": (1, 2**32)}),
    disorder_summary: (([SEQUENCE], [1]), {"question_ids": (1, None)}),
    srt_vs_expected: (([RESPONSES], SPEC, [1]), {"subset": (1, None)}),
    ComprehensionInputs: ((3, 3, 4, 10.0, 60.0), {"qdi": frozenset(DIFFICULTY_INDICES),
                                                  "cdi": frozenset(DIFFICULTY_INDICES),
                                                  "w": frozenset(WS_WEIGHTS)}),
    comprehension_for_subset: ((RESPONSES, SPEC, [1]), {"subset": (1, None)}),
    effective_comprehension_level: ((3, 3, 4), {"qdi": frozenset(DIFFICULTY_INDICES),
                                                "cdi": frozenset(DIFFICULTY_INDICES),
                                                "w": frozenset(WS_WEIGHTS)}),
    max_comprehension_level: ((3, 3), {"qdi": frozenset(DIFFICULTY_INDICES),
                                       "cdi": frozenset(DIFFICULTY_INDICES)}),
    questionnaire_comprehension_level: (([0.5, 0.5], 0.5, 2), {"q_count": (1, None)}),
    QuestionSubset: (((1, 2),), {"question_ids": (1, None)}),
    assurance_degree: ((RESPONSES, SPEC, [1]), {"subset": (1, None)}),
    student_response_time: ((RESPONSES, [1]), {"subset": (1, None)}),
    traditional_score: ((RESPONSES, SPEC, [1]), {"subset": (1, None)}),
    weighted_score: ((RESPONSES, SPEC, [1]), {"subset": (1, None)}),
    QuestionResponse: ((1, 0, None, 0.0), {"question_id": (1, None), "markings": (0, None)}),
    LuInputs: ((3, 3, 3, 5, ResponseTimeClass.NORMAL),
               {"tdi": frozenset(DIFFICULTY_INDICES), "cdi": frozenset(DIFFICULTY_INDICES),
                "qdi": frozenset(DIFFICULTY_INDICES), "deviation": frozenset(LU_DEVIATIONS)}),
    SplitMix64: ((1,), {"seed": (None, None)}),
    SplitMix64(1).below: ((6,), {"n": (1, 2**64)}),
    SplitMix64(1).randint: ((1, 6), {"lo": (None, None), "hi": (1, None)}),
    BehaviorProfile: ((BehaviorKind.SELF_CORRECTOR, 1, (2, 5), (1, 2)),
                      {"seed": (0, MASK64), "markings_range": (1, None),
                       "markings_per_question": (1, None)}),
    profile_from_name: (("assured", 1), {"seed": (0, MASK64)}),
    simulate_class: ((PROFILE, SPEC, 1), {"count": (0, None)}),
}

# Integer parameters that need no check, and why.
INT_EXEMPT = {
    "rank_priorities": {"per_element_ts_ws": "its keys are element labels: subjects or topic ids"},
    **{
        function: {"responses": "the subset's checked ids are looked up in its keys"}
        for function in ("assurance_degree", "comprehension_for_subset", "student_response_time",
                         "traditional_score", "weighted_score")
    },
    "srt_vs_expected": {
        "responses_per_student": "the subset's checked ids are looked up in its keys"
    },
}


def int_name(function) -> str:
    return function.__qualname__


def int_cases():
    """Per integer input, in each position of a sequence, in an otherwise valid
    call: a bool, the valid int as a float and a value just past each bound, or
    just outside the set. A data-model constructor raises ValidationError with
    the parameter as its field; every other check DomainError."""
    for function, (_, allowed) in INT_INPUTS.items():
        arguments = valid_arguments(function, INT_INPUTS)
        in_model = function.__module__ == "edumetrics.domain_model"
        error = ValidationError if in_model else DomainError
        for name, span in allowed.items():
            lo, hi = (min(span), max(span)) if isinstance(span, frozenset) else span
            bad = [("bool", lambda _: True), ("float", float)]
            if lo is not None:
                bad.append(("below", lambda _: lo - 1))
            if hi is not None:
                bad.append(("above", lambda _: hi + 1))
            for label, replace_number in bad:
                for i, value in enumerate(with_each(arguments[name], replace_number)):
                    call = partial(function, **{**arguments, name: value})
                    yield pytest.param(call, error, name if in_model else None, None,
                                       id=f"{int_name(function)}-{name}-{label}-{i}")


CASES += int_cases()


@pytest.mark.parametrize("call, error, field, line", CASES)
def test_raise_site(call, error, field, line):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    if error is ValidationError:
        assert (err.value.field, err.value.line) == (field, line)


@pytest.mark.parametrize("function", FLOAT_INPUTS, ids=lambda function: function.__name__)
def test_float_inputs_valid_call_passes(function):
    function(**valid_arguments(function))


@pytest.mark.parametrize("function", INT_INPUTS, ids=int_name)
def test_int_inputs_valid_call_passes(function):
    function(**valid_arguments(function, INT_INPUTS))


def mentions_float(hint) -> bool:
    return hint is float or any(map(mentions_float, get_args(hint)))


def test_float_inputs_cover_every_exported_float_parameter():
    """A new exported function, or a new parameter, that takes a float needs a row."""
    takes_float = {}
    for name in edumetrics.__all__:
        function = getattr(edumetrics, name)
        if inspect.isfunction(function):
            hints = get_type_hints(function)
            hints.pop("return", None)
            params = {param for param, hint in hints.items() if mentions_float(hint)}
            if params:
                takes_float[name] = params
    assert takes_float == {f.__name__: set(ranges) for f, (_, ranges) in FLOAT_INPUTS.items()}


def mentions_int(hint) -> bool:
    return hint is int or any(map(mentions_int, get_args(hint)))


def test_int_inputs_cover_every_exported_int_parameter():
    """A new exported function or checked constructor, or a new parameter, that
    takes an int needs a row in INT_INPUTS or a reason in INT_EXEMPT."""
    takes_int = {}
    for name in edumetrics.__all__:
        obj = getattr(edumetrics, name)
        if inspect.isclass(obj) and not issubclass(obj, Enum) and "__new__" in vars(obj):
            hints = get_type_hints(obj.__new__)
        elif inspect.isclass(obj) and "__post_init__" in vars(obj):
            hints = get_type_hints(obj)
        elif inspect.isfunction(obj):
            hints = get_type_hints(obj)
        else:
            continue
        hints.pop("return", None)
        params = {param for param, hint in hints.items() if mentions_int(hint)}
        if params:
            takes_int[name] = params
    covered = {
        name: set(INT_EXEMPT.get(name, {}))
        | {p for f, (_, allowed) in INT_INPUTS.items() if int_name(f) == name for p in allowed}
        for name in takes_int
    }
    assert takes_int == covered
