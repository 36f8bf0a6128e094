"""Property test: on generated specs and sessions, every row that
``compute_student`` builds equals the public metric definitions, and
``derive_responses`` equals a plain two-pass derivation kept here as the
reference."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from edumetrics import (
    AssessmentEvent,
    EventKind,
    QuestionResponse,
    QuestionSubset,
    SrtMode,
    StudentSession,
    assurance_degree,
    comprehension_for_response,
    comprehension_for_subset,
    derive_answer_sequence,
    derive_responses,
    level_of_disorder,
    priority,
    question_doubt,
    student_response_time,
    traditional_score,
    weighted_score,
)
from edumetrics.reporting import compute_student
from helpers import make_question, make_spec

INDICES = st.sampled_from((1, 3, 5))
# Non-integer times, some of them whole milliseconds even as quarters.
EXPECTED_TIMES = st.one_of(
    st.sampled_from((0.25, 2.0, 7.5, 45.0, 90.5, 120.0)),
    st.floats(min_value=0.001, max_value=400.0),
)
WEIGHTS = st.permutations((4, 3, 2, 1, 0)) | st.sampled_from([(4, 0, 0, 1, 1), (0, 0, 4, 0, 0)])


@st.composite
def specs(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    questions = [
        make_question(
            qid,
            subject=draw(st.sampled_from("ABC")),
            topics=tuple(draw(st.sets(st.integers(min_value=1, max_value=4), max_size=3))),
            qdi=draw(INDICES),
            cdi=draw(INDICES),
            expected_time_s=draw(EXPECTED_TIMES),
            weights=tuple(draw(WEIGHTS)),
        )
        for qid in range(1, count + 1)
    ]
    return make_spec(questions)


def _gaps(*questions):
    """0 to 200 s, or a quarter or the whole of an expected time of
    ``questions``: the edges of the qcl branches."""
    edges = [round(q.expected_time_s * f) for q in questions for f in (250, 1000)]
    return st.sampled_from([0, *edges]) | st.integers(0, 200_000)


@st.composite
def sessions(draw, spec):
    """Views and answers, re-marks included, and a session end at or
    after the last event. Each event may stay on the question before it,
    so runs of answers to one question, with views between some of them,
    are common. A gap may be an edge of the question it is charged to in
    either srt mode: the one before it in view mode, the one after it in
    answer mode."""
    stamp = draw(st.integers(min_value=0, max_value=10**6))
    events = []
    question = None
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        previous = question
        if previous is None or not draw(st.booleans()):
            question = draw(st.sampled_from(spec.questions))
        if draw(st.booleans()):
            kind, option_id = EventKind.ANSWER, draw(st.sampled_from(question.options)).option_id
        else:
            kind, option_id = EventKind.VIEW, None
        if previous is not None:
            stamp += draw(_gaps(question, previous))
        events.append(
            AssessmentEvent(student_id="s", question_id=question.question_id, kind=kind,
                            option_id=option_id, timestamp_ms=stamp)
        )
    last = [question] if question else []
    end = stamp + draw(_gaps(*last) | st.integers(0, 10**6))
    return StudentSession(student_id="s", events=tuple(events), session_end_ms=end)


def _reference_responses(session, spec, mode):
    """Markings and final options in one loop, srt in a second."""
    markings, final, srt_ms = {}, {}, {}
    for event in session.events:
        if event.kind is EventKind.ANSWER:
            markings[event.question_id] = markings.get(event.question_id, 0) + 1
            final[event.question_id] = event.option_id
    events = session.events
    if mode is SrtMode.VIEW_INTERVALS:
        stamps = [e.timestamp_ms for e in events[1:]] + [session.session_end_ms]
        for event, until in zip(events, stamps):
            qid = event.question_id
            srt_ms[qid] = srt_ms.get(qid, 0) + until - event.timestamp_ms
    else:
        answers = [e for e in events if e.kind is EventKind.ANSWER]
        starts = [events[0].timestamp_ms] + [a.timestamp_ms for a in answers] if answers else []
        for answer, start in zip(answers, starts):
            qid = answer.question_id
            srt_ms[qid] = srt_ms.get(qid, 0) + answer.timestamp_ms - start
    return {
        q.question_id: QuestionResponse(
            question_id=q.question_id,
            markings=markings.get(q.question_id, 0),
            final_option=q.option(final[q.question_id]) if q.question_id in final else None,
            srt_s=srt_ms.get(q.question_id, 0) / 1000.0,
        )
        for q in spec.questions
    }


def _subset(spec, row):
    """The row's question set, read from the questions, not from ``spec.subset_layout``."""
    if row.scope == "questionnaire":
        return QuestionSubset([q.question_id for q in spec.questions])
    if row.scope == "subject":
        return QuestionSubset([q.question_id for q in spec.questions if q.subject == row.element])
    return QuestionSubset([q.question_id for q in spec.questions if row.element in q.topic_ids])


@st.composite
def specs_and_sessions(draw):
    spec = draw(specs())
    return spec, draw(sessions(spec))


def _one_answer(view_srt_ms):
    """One question expected in 2 s, answered once; in view mode its srt
    is ``view_srt_ms``."""
    spec = make_spec([make_question(1, expected_time_s=2.0)])
    answer = AssessmentEvent(student_id="s", question_id=1, kind=EventKind.ANSWER,
                             option_id="a", timestamp_ms=1000)
    return spec, StudentSession(student_id="s", events=(answer,),
                                session_end_ms=1000 + view_srt_ms)


def _steps(subjects, *steps, topics=None):
    """One question per letter of ``subjects``, in that subject and in the
    topics of its entry of ``topics`` (none when omitted), and a session of
    ``steps`` 1.5 s apart: (question id, option id) is an answer, (question
    id, None) a view."""
    topics = topics or [()] * len(subjects)
    spec = make_spec([make_question(q, subject=s, topics=t)
                      for q, (s, t) in enumerate(zip(subjects, topics), start=1)])
    events = tuple(
        AssessmentEvent("s", qid, EventKind.VIEW if option_id is None else EventKind.ANSWER,
                        option_id, 1500 * i)
        for i, (qid, option_id) in enumerate(steps)
    )
    return spec, StudentSession("s", events, 1500 * len(steps))


@settings(max_examples=80, deadline=None, database=None)
@given(case=specs_and_sessions())
@example(case=_one_answer(500))  # srt is exactly a quarter of the expected time
@example(case=_one_answer(2000))  # and exactly the expected time
# The whole session is one run.
@example(case=_steps("AB", (1, "a"), (1, "b"), (1, "b"), (1, "c"), (1, "a"), (1, "d")))
# Question 2's run is the first answer of subject B; 3 then 1 is out of order.
@example(case=_steps("ABA", (1, "a"), (2, "b"), (2, "a"), (2, "a"), (3, "c"), (1, "e")))
# In both modes q1, q1, a view of q2, then q1 is one run of three answers.
@example(case=_steps("AB", (1, "a"), (1, "b"), (2, None), (1, "c")))
# Subject B holds question 3 alone and topic 2 question 2 alone: one-element getters.
@example(case=_steps("AAB", (3, "b"), (2, None), (2, "a"), (2, "c"), (1, "e"), (3, "a"),
                     topics=[(1,), (1, 2), (1,)]))
def test_compute_student_equals_metric_definitions(case):
    spec, session = case
    sequence = derive_answer_sequence(session)
    for mode in SrtMode:
        report = compute_student(session, spec, mode)
        responses = derive_responses(session, spec, mode)
        assert responses == _reference_responses(session, spec, mode)
        assert [q.question_id for q in report.questions] == list(responses)
        for row in report.questions:
            response = responses[row.question_id]
            assert row.markings == response.markings
            assert row.doubt == question_doubt(response)
            assert row.weight == response.final_weight
            assert row.srt_s == response.srt_s
            assert row.qcl == comprehension_for_response(response, spec.question(row.question_id))
        assert [(row.scope, row.element) for row in report.subsets] == [
            (scope, element) for scope, element, _ in spec.subset_layout
        ]
        for row in report.subsets:
            subset = _subset(spec, row)
            ts = traditional_score(responses, spec, subset)
            ws = weighted_score(responses, spec, subset)
            where = (mode, row.scope, row.element)
            assert row.ts == ts, where
            assert row.ws == ws, where
            assert row.ad == assurance_degree(responses, spec, subset), where
            assert row.srt_s == student_response_time(responses, subset), where
            assert row.disorder == level_of_disorder(sequence.restricted_to(subset)), where
            assert row.qucl == comprehension_for_subset(responses, spec, subset), where
            assert row.priority == priority(ts, ws), where
