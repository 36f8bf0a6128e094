import random

import pytest

from edumetrics import (
    AnswerOption,
    DomainError,
    QuestionResponse,
    SrtMode,
    ValidationError,
    derive_answer_sequence,
    derive_responses,
    pick_log_srt_mode,
)
from helpers import answer_event, make_session, make_spec, view_event


def test_markings_and_final_options():
    spec = make_spec(n=2)
    session = make_session(
        [
            answer_event("s1", 1, "a", 0),
            answer_event("s1", 2, "b", 1000),
            answer_event("s1", 1, "c", 2000),
        ]
    )
    responses = derive_responses(session, spec, SrtMode.ANSWER_INTERVALS)
    assert responses[1].markings == 2
    assert responses[2].markings == 1
    assert responses[1].final_option.option_id == "c"
    assert responses[2].final_option.option_id == "b"


@pytest.mark.parametrize(
    "markings, final_option",
    [(0, AnswerOption("a", 4, 5)), (1, None)],
    ids=["option-without-markings", "markings-without-option"],
)
def test_question_response_rejects_option_marking_mismatch(markings, final_option):
    with pytest.raises(DomainError, match="final_option must be present exactly"):
        QuestionResponse(question_id=1, markings=markings, final_option=final_option, srt_s=0.0)


def test_derive_rejects_an_option_the_question_does_not_offer():
    session = make_session([answer_event("s1", 2, "z", 0)])
    for mode in SrtMode:
        with pytest.raises(ValidationError) as err:
            derive_responses(session, make_spec(n=2), mode)
        assert (err.value.field, err.value.question_id) == ("option_id", 2)


def test_derive_rejects_a_question_the_spec_lacks_where_the_mode_reads_it():
    session = make_session([view_event("s1", 9, 0), answer_event("s1", 1, "a", 5)])
    with pytest.raises(DomainError, match="^question 9 is not in the spec$"):
        derive_responses(session, make_spec(n=3), SrtMode.VIEW_INTERVALS)
    # Answer mode reads no view: the view of question 9 charges no time there.
    responses = derive_responses(session, make_spec(n=3), SrtMode.ANSWER_INTERVALS)
    assert [r.markings for r in responses.values()] == [1, 0, 0]


def test_answer_interval_attribution_charges_the_later_answer():
    spec = make_spec(n=2)
    session = make_session(
        [answer_event("s1", 1, "a", 0), answer_event("s1", 2, "a", 60_000)],
        end=70_000,
    )
    responses = derive_responses(session, spec, SrtMode.ANSWER_INTERVALS)
    assert responses[1].srt_s == 0.0
    assert responses[2].srt_s == 60.0
    # The 10s after the last answer stay unattributed in this mode.
    assert sum(r.srt_s for r in responses.values()) == 60.0


def test_view_interval_attribution():
    spec = make_spec(n=2)
    session = make_session(
        [
            view_event("s1", 1, 0),
            answer_event("s1", 1, "a", 38_000),
            view_event("s1", 2, 38_000),
        ]
    )
    responses = derive_responses(session, spec, SrtMode.VIEW_INTERVALS)
    assert responses[1].srt_s == pytest.approx(38.0)
    assert responses[2].srt_s == 0.0


def test_view_interval_tail_goes_to_last_question():
    spec = make_spec(n=2)
    session = make_session(
        [view_event("s1", 1, 0), view_event("s1", 2, 10_000)], end=25_000
    )
    responses = derive_responses(session, spec, SrtMode.VIEW_INTERVALS)
    assert responses[1].srt_s == 10.0
    assert responses[2].srt_s == 15.0


def test_revisits_accumulate_time():
    spec = make_spec(n=2)
    session = make_session(
        [
            view_event("s1", 1, 0),
            view_event("s1", 2, 5_000),
            view_event("s1", 1, 9_000),
            answer_event("s1", 1, "a", 15_000),
        ]
    )
    responses = derive_responses(session, spec, SrtMode.VIEW_INTERVALS)
    assert responses[1].srt_s == pytest.approx(5.0 + 6.0)
    assert responses[2].srt_s == pytest.approx(4.0)


def test_mode_defaults_to_view_intervals_when_views_exist():
    session = make_session([view_event("s1", 1, 0), answer_event("s1", 1, "a", 10)])
    assert pick_log_srt_mode([session]) is SrtMode.VIEW_INTERVALS
    answers_only = make_session([answer_event("s1", 1, "a", 10)])
    assert pick_log_srt_mode([answers_only]) is SrtMode.ANSWER_INTERVALS
    assert pick_log_srt_mode([make_session([])]) is SrtMode.ANSWER_INTERVALS


def test_log_mode_is_view_intervals_when_any_session_has_views():
    spec = make_spec(n=2)
    viewer = make_session(
        [view_event("s1", 1, 0), answer_event("s1", 1, "a", 10_000)], student="s1"
    )
    answerer = make_session(
        [answer_event("s2", 1, "a", 0), answer_event("s2", 2, "b", 20_000)],
        end=30_000,
        student="s2",
    )
    mode = pick_log_srt_mode([answerer, viewer])
    assert mode is SrtMode.VIEW_INTERVALS
    assert pick_log_srt_mode([answerer]) is SrtMode.ANSWER_INTERVALS
    # The mixed log's mode times the answer-only session by views too.
    responses = derive_responses(answerer, spec, mode)
    assert responses[1].srt_s == 20.0
    assert responses[2].srt_s == 10.0
    assert derive_responses(answerer, spec, SrtMode.ANSWER_INTERVALS)[1].srt_s == 0.0


def test_untouched_questions_get_zero_rows():
    spec = make_spec(n=3)
    session = make_session([answer_event("s1", 2, "a", 100)])
    responses = derive_responses(session, spec, SrtMode.ANSWER_INTERVALS)
    assert responses[1].markings == 0
    assert responses[1].final_option is None
    assert responses[1].srt_s == 0.0
    assert set(responses) == {1, 2, 3}


def test_empty_session_yields_all_zero():
    spec = make_spec(n=2)
    session = make_session([], student="s9")
    responses = derive_responses(session, spec, SrtMode.ANSWER_INTERVALS)
    assert all(r.markings == 0 and r.srt_s == 0.0 for r in responses.values())


def test_answer_sequence_preserves_order_and_duplicates():
    entries = [(1, "a"), (2, "a"), (3, "c"), (5, "b"), (1, "b"), (4, "c"), (1, "a")]
    session = make_session(
        [answer_event("s1", q, o, i * 1000) for i, (q, o) in enumerate(entries)]
    )
    assert derive_answer_sequence(session).question_ids == (1, 2, 3, 5, 1, 4, 1)


def test_answer_sequence_ignores_views():
    session = make_session([view_event("s1", 1, 0), view_event("s1", 2, 10)])
    assert derive_answer_sequence(session).question_ids == ()


def test_answer_sequence_single_answer():
    session = make_session([answer_event("s1", 4, "b", 5)])
    assert derive_answer_sequence(session).question_ids == (4,)


def test_sequence_restriction_keeps_order():
    entries = [(1, "a"), (3, "b"), (2, "a"), (3, "a"), (1, "c")]
    session = make_session(
        [answer_event("s1", q, o, i) for i, (q, o) in enumerate(entries)]
    )
    restricted = derive_answer_sequence(session).restricted_to([1, 3])
    assert restricted.question_ids == (1, 3, 3, 1)


def _random_session(rnd, spec):
    events = []
    ts = 0
    for _ in range(rnd.randint(0, 40)):
        ts += rnd.randint(0, 3000)
        qid = rnd.randint(1, spec.question_count)
        if rnd.random() < 0.3:
            events.append(view_event("s1", qid, ts))
        else:
            events.append(answer_event("s1", qid, rnd.choice("abcde"), ts))
    end = ts + rnd.randint(0, 5000)
    return make_session(events, end=end)


def test_marking_total_equals_sequence_length_and_time_is_partitioned():
    spec = make_spec(n=5)
    rnd = random.Random(42)
    for _ in range(200):
        session = _random_session(rnd, spec)
        responses = derive_responses(session, spec, SrtMode.VIEW_INTERVALS)
        sequence = derive_answer_sequence(session)
        assert sum(r.markings for r in responses.values()) == len(sequence)
        total = sum(r.srt_s for r in responses.values())
        if session.events:
            budget = (session.session_end_ms - session.events[0].timestamp_ms) / 1000.0
            assert total <= budget + 1e-9
            assert total == pytest.approx(budget, abs=1e-9)
        else:
            assert total == 0.0


def test_derivation_is_deterministic():
    spec = make_spec(n=4)
    rnd = random.Random(7)
    session = _random_session(rnd, spec)
    mode = pick_log_srt_mode([session])
    assert derive_responses(session, spec, mode) == derive_responses(session, spec, mode)
    assert derive_answer_sequence(session) == derive_answer_sequence(session)
