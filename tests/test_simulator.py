import hashlib
from dataclasses import replace

import pytest

from edumetrics import (
    BehaviorKind,
    BehaviorProfile,
    DomainError,
    QuestionSubset,
    SimulationError,
    SplitMix64,
    SrtMode,
    StudentSession,
    assurance_degree,
    comprehension_for_response,
    comprehension_for_subset,
    derive_answer_sequence,
    derive_responses,
    event_log_csv,
    level_of_disorder,
    parse_event_log,
    profile_from_name,
    simulate_class,
    simulate_student,
    traditional_score,
)
from helpers import make_question, make_spec

SPEC = make_spec(n=6)


def pipeline(session, spec=SPEC):
    responses = derive_responses(session, spec, SrtMode.VIEW_INTERVALS)
    sequence = derive_answer_sequence(session)
    subset = QuestionSubset.whole(spec)
    return {
        "ts": traditional_score(responses, spec, subset),
        "ad": assurance_degree(responses, spec, subset),
        "d": level_of_disorder(sequence),
        "qucl": comprehension_for_subset(responses, spec, subset),
        "responses": responses,
    }


def test_splitmix_reference_stream():
    # Reference outputs of the standard generator for seed 1234567; any
    # conforming implementation must reproduce them.
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix_bounded_draws_stay_in_range():
    rng = SplitMix64(123)
    for _ in range(1000):
        assert 0 <= rng.below(7) < 7
        assert 3 <= rng.randint(3, 9) <= 9


def test_simulation_is_deterministic():
    profile = profile_from_name("assured", 7)
    a = event_log_csv(simulate_class(profile, SPEC, 3))
    b = event_log_csv(simulate_class(profile, SPEC, 3))
    assert a == b


# Expected times differ by question, so each profile's times vary with it.
LOG_SPEC = make_spec(
    [make_question(i + 1, expected_time_s=40.0 + 20 * (i % 3)) for i in range(8)]
)

# sha256 of the event log of each profile's simulated class and of
# `_ended_sessions`, recorded from the writer that went through csv.writer.
LOG_DIGESTS = {
    "assured": "ff7e3695efb1a8a17a09b580bec564982223c75973ca71f22f1a14101d706b48",
    "guesser": "809e5e6c8118fc3713aaa19eedd6cb6f2e92c2c6de261735aa5b354aed68eb96",
    "self-corrector": "d9cdb8c69854afa44df9cb318c85424b3ed5c019f94c80b01362a5cff9c9eb86",
    "disordered": "5abc45b17f8d9fca148d5d7d6cb56a728c002000a1ab01f6d55c5b774675008b",
    "ended": "5a4cf8b6ad45e89bb2361e86e85f1bd9adecf888f025a3cb50767bec96e692ab",
}


def _ended_sessions():
    """Simulated sessions, all but the first ending after their last event (so
    the log has end rows), and one with no events. Their ids hold characters
    the log admits unquoted."""
    simulated = simulate_class(
        profile_from_name("self-corrector", 5), LOG_SPEC, 3, id_prefix="s \u00e9\t%d;"
    )
    ended = [
        replace(s, session_end_ms=s.session_end_ms + 1000 * i) for i, s in enumerate(simulated)
    ]
    return [*ended, StudentSession("idle \u2028 ~", (), 7000)]


@pytest.mark.parametrize("name", sorted(LOG_DIGESTS))
def test_event_log_bytes_match_recorded_digests(name):
    if name == "ended":
        sessions = _ended_sessions()
    else:
        sessions = simulate_class(profile_from_name(name, 31), LOG_SPEC, 5)
    text = event_log_csv(sessions)
    assert parse_event_log(text, LOG_SPEC) == sessions
    assert hashlib.sha256(text.encode()).hexdigest() == LOG_DIGESTS[name]


def test_different_seeds_differ():
    a = event_log_csv([simulate_student(profile_from_name("assured", 1), SPEC)])
    b = event_log_csv([simulate_student(profile_from_name("assured", 2), SPEC)])
    assert a != b


def test_assured_student_hits_the_analytic_expectations():
    for seed in range(10):
        session = simulate_student(profile_from_name("assured", seed), SPEC)
        metrics = pipeline(session)
        assert metrics["ts"] == 10.0
        assert metrics["ad"] == 1.0
        assert metrics["d"] == 0.0
        assert metrics["qucl"] == 1.0


def test_assured_times_stay_in_the_normal_band():
    session = simulate_student(profile_from_name("assured", 3), SPEC)
    responses = derive_responses(session, SPEC, SrtMode.VIEW_INTERVALS)
    for question in SPEC.questions:
        srt = responses[question.question_id].srt_s
        assert question.expected_time_s / 4 < srt <= question.expected_time_s


def test_guesser_answers_fast_and_caps_comprehension():
    for seed in range(10):
        session = simulate_student(profile_from_name("guesser", seed), SPEC)
        responses = derive_responses(session, SPEC, SrtMode.VIEW_INTERVALS)
        for question in SPEC.questions:
            response = responses[question.question_id]
            assert 0 < response.srt_s <= question.expected_time_s / 4
            assert comprehension_for_response(response, question) <= 0.25


def test_self_corrector_reproduces_the_assurance_case():
    profile = BehaviorProfile(
        kind=BehaviorKind.SELF_CORRECTOR,
        seed=11,
        markings_per_question=(4, 2, 1, 3, 5, 2),
    )
    session = simulate_student(profile, SPEC)
    metrics = pipeline(session)
    assert metrics["ts"] == 10.0
    assert metrics["ad"] == pytest.approx(0.3529, abs=1e-4)
    responses = metrics["responses"]
    assert [responses[q].markings for q in range(1, 7)] == [4, 2, 1, 3, 5, 2]


def test_self_corrector_defaults_to_multiple_markings():
    session = simulate_student(profile_from_name("self-corrector", 5), SPEC)
    responses = derive_responses(session, SPEC, SrtMode.VIEW_INTERVALS)
    assert all(r.markings >= 2 for r in responses.values())
    assert all(r.is_correct for r in responses.values())


def test_disordered_student_shows_positive_disorder():
    for seed in range(20):
        session = simulate_student(profile_from_name("disordered", seed), SPEC)
        metrics = pipeline(session)
        assert metrics["d"] > 0.0
        assert metrics["ts"] == 10.0


def test_disordered_on_two_questions_allows_zero_disorder():
    tiny = make_spec(n=2)
    session = simulate_student(profile_from_name("disordered", 0), tiny)
    assert level_of_disorder(derive_answer_sequence(session)) == 0.0


def test_simulated_sessions_fit_the_time_budget():
    session = simulate_student(profile_from_name("assured", 9), SPEC)
    assert session.session_end_ms <= SPEC.max_total_time_s * 1000


def test_infeasible_schedule_raises():
    cramped = make_spec(
        [make_question(i + 1, expected_time_s=120.0) for i in range(6)],
        max_total_time_s=60.0,
    )
    with pytest.raises(SimulationError):
        simulate_student(profile_from_name("assured", 1), cramped)


def test_markings_vector_must_match_question_count():
    profile = BehaviorProfile(
        kind=BehaviorKind.SELF_CORRECTOR, seed=1, markings_per_question=(2, 2)
    )
    with pytest.raises(SimulationError):
        simulate_student(profile, SPEC)


def test_unknown_profile_name_rejected():
    with pytest.raises(DomainError):
        profile_from_name("sleepy", 1)


def test_profile_name_spelling_variants_rejected():
    for name in ("self_corrector", "selfcorrector", " assured", "Guesser"):
        with pytest.raises(DomainError, match="known profiles: assured, guesser, "
                           "self-corrector, disordered"):
            profile_from_name(name, 1)


def test_profile_validation():
    with pytest.raises(DomainError):
        BehaviorProfile(kind=BehaviorKind.ASSURED, seed=-1)


def test_guesser_and_assured_separate_on_comprehension():
    spec = make_spec(n=4)
    subset = QuestionSubset.whole(spec)
    assured = simulate_class(profile_from_name("assured", 100), spec, 20)
    guessers = simulate_class(profile_from_name("guesser", 200), spec, 20)

    def qucl(session):
        responses = derive_responses(session, spec, SrtMode.VIEW_INTERVALS)
        return comprehension_for_subset(responses, spec, subset)

    assured_values = [qucl(s) for s in assured]
    guesser_values = [qucl(s) for s in guessers]
    assert min(assured_values) > max(guesser_values)
