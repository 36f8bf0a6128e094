import math
import random

import pytest

from edumetrics import (
    AnswerSequence,
    DomainError,
    QuestionSubset,
    assurance_degree,
    error_rate,
    level_of_disorder,
    question_doubt,
    student_response_time,
    subject_subsets,
    topic_subsets,
    traditional_score,
    weighted_score,
)
from helpers import make_question, make_spec, mmss, responses_for

SIX = make_spec(n=6)
WHOLE_SIX = QuestionSubset.whole(SIX)


def sequence_of(*question_ids):
    return AnswerSequence(question_ids)


def test_traditional_score_worked_examples():
    subject_a = responses_for(SIX, [4, 3, 4, 2, 4, 4])
    subject_b = responses_for(SIX, [3, 3, 3, 3, 3, 4])
    assert traditional_score(subject_a, SIX, WHOLE_SIX) == pytest.approx(6.67, abs=0.005)
    assert traditional_score(subject_b, SIX, WHOLE_SIX) == pytest.approx(1.67, abs=0.005)


def test_traditional_score_all_correct_is_ten():
    responses = responses_for(SIX, [4] * 6)
    assert traditional_score(responses, SIX, WHOLE_SIX) == 10.0


def test_unanswered_count_as_incorrect():
    responses = responses_for(SIX, [4, None, None, None, None, None])
    assert traditional_score(responses, SIX, WHOLE_SIX) == pytest.approx(10 / 6)


def test_weighted_score_worked_examples():
    subject_a = responses_for(SIX, [4, 3, 4, 2, 4, 4])
    subject_b = responses_for(SIX, [3, 3, 3, 3, 3, 4])
    assert weighted_score(subject_a, SIX, WHOLE_SIX) == 8.75
    assert weighted_score(subject_b, SIX, WHOLE_SIX) == pytest.approx(7.92, abs=0.005)


def test_weighted_score_all_zero():
    responses = responses_for(SIX, [0] * 6)
    assert weighted_score(responses, SIX, WHOLE_SIX) == 0.0


def test_error_rate():
    assert error_rate(10.0) == 0.0
    assert error_rate(0.0) == 1.0
    assert error_rate(6.67) == pytest.approx(0.333, abs=0.001)
    with pytest.raises(DomainError):
        error_rate(11.0)


def test_question_doubt():
    spec = make_spec(n=1)
    assert question_doubt(responses_for(spec, [4], markings=[2])[1]) == 1
    assert question_doubt(responses_for(spec, [4], markings=[8])[1]) == 7
    assert question_doubt(responses_for(spec, [None])[1]) == -1


def test_question_doubt_table_row():
    markings = [2, 4, 5, 6, 8, 1]
    responses = responses_for(SIX, [4] * 6, markings=markings)
    doubts = [question_doubt(responses[q]) for q in range(1, 7)]
    assert doubts == [1, 3, 4, 5, 7, 0]


def test_assurance_degree_extreme_cases():
    all_first_try = responses_for(SIX, [4] * 6, markings=[1] * 6)
    assert assurance_degree(all_first_try, SIX, WHOLE_SIX) == 1.0

    all_wrong = responses_for(SIX, [0] * 6, markings=[1] * 6)
    assert assurance_degree(all_wrong, SIX, WHOLE_SIX) == 0.0

    self_corrected = responses_for(SIX, [4] * 6, markings=[4, 2, 1, 3, 5, 2])
    assert assurance_degree(self_corrected, SIX, WHOLE_SIX) == pytest.approx(
        0.3529, abs=1e-4
    )


def test_assurance_degree_no_markings_is_zero():
    blank = responses_for(SIX, [None] * 6)
    assert assurance_degree(blank, SIX, WHOLE_SIX) == 0.0


def test_student_response_time_additivity():
    spec = make_spec(n=2)
    responses = responses_for(spec, [4, 4], srts=[70.0, 60.0])
    assert student_response_time(responses, [1, 2]) == 130.0
    assert student_response_time(responses, [1]) == 70.0


def test_student_response_time_zero():
    responses = responses_for(SIX, [4] * 6)
    assert student_response_time(responses, WHOLE_SIX) == 0.0


def test_student_response_time_subject_total():
    table = ["04:47", "02:50", "02:58", "02:17", "02:49", "02:18", "02:46", "03:38"]
    spec = make_spec(n=8)
    responses = responses_for(spec, [4] * 8, srts=[float(mmss(t)) for t in table])
    total = student_response_time(responses, QuestionSubset.whole(spec))
    # The per-question values are rounded to whole seconds, so the total can
    # differ from the printed 24:22 by up to half a second per question.
    assert abs(total - mmss("24:22")) <= 4.0


def test_level_of_disorder_mixed_sequence():
    sequence = sequence_of(1, 2, 3, 5, 1, 4, 1)
    expected = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    assert level_of_disorder(sequence) == pytest.approx(expected)
    assert level_of_disorder(sequence) == pytest.approx(0.9183, abs=1e-4)


def test_level_of_disorder_monotonic_is_zero():
    assert level_of_disorder(sequence_of(1, 2, 3, 4, 5)) == 0.0
    assert level_of_disorder(sequence_of(5, 4, 3, 2, 1)) == 0.0


def test_level_of_disorder_short_sequences():
    assert level_of_disorder(sequence_of()) == 0.0
    assert level_of_disorder(sequence_of(3)) == 0.0


def test_level_of_disorder_peaks_at_even_split():
    assert level_of_disorder(sequence_of(1, 3, 2)) == 1.0


def test_level_of_disorder_repeats_count_in_order():
    assert level_of_disorder(sequence_of(2, 2, 2)) == 0.0


def test_empty_subset_rejected():
    responses = responses_for(SIX, [4] * 6)
    with pytest.raises(DomainError):
        traditional_score(responses, SIX, [])
    with pytest.raises(DomainError):
        student_response_time(responses, [])


def test_subset_unknown_question_rejected():
    responses = responses_for(SIX, [4] * 6)
    with pytest.raises(DomainError):
        traditional_score(responses, SIX, [99])


def test_subject_and_topic_subsets():
    questions = [
        make_question(1, subject="Maths", topics=(17,)),
        make_question(2, subject="History", topics=(17, 81)),
        make_question(3, subject="Maths", topics=(91,)),
    ]
    spec = make_spec(questions)
    assert subject_subsets(spec)["Maths"].question_ids == (1, 3)
    assert topic_subsets(spec)[17].question_ids == (1, 2)
    assert list(topic_subsets(spec)) == [17, 81, 91]


def test_weighted_never_below_traditional():
    rnd = random.Random(11)
    for _ in range(300):
        n = rnd.randint(1, 8)
        spec = make_spec(n=n)
        weights = [rnd.choice([None, 0, 1, 2, 3, 4]) for _ in range(n)]
        responses = responses_for(spec, weights)
        subset = QuestionSubset.whole(spec)
        ws = weighted_score(responses, spec, subset)
        ts = traditional_score(responses, spec, subset)
        assert ws >= ts - 1e-12
        misses_have_weight = any(w not in (None, 0, 4) for w in weights)
        if misses_have_weight:
            assert ws > ts
        else:
            assert ws == pytest.approx(ts)


def test_assurance_degree_stays_in_unit_interval():
    rnd = random.Random(12)
    for _ in range(300):
        n = rnd.randint(1, 8)
        spec = make_spec(n=n)
        weights = [rnd.choice([None, 0, 2, 4]) for _ in range(n)]
        markings = [rnd.randint(1, 9) if w is not None else 0 for w in weights]
        responses = responses_for(spec, weights, markings=markings)
        ad = assurance_degree(responses, spec, QuestionSubset.whole(spec))
        assert 0.0 <= ad <= 1.0


def test_disorder_stays_in_unit_interval():
    rnd = random.Random(13)
    for _ in range(300):
        ids = [rnd.randint(1, 6) for _ in range(rnd.randint(0, 30))]
        assert 0.0 <= level_of_disorder(sequence_of(*ids)) <= 1.0
