import pytest

from edumetrics import (
    DomainError,
    LuInputs,
    ResponseTimeClass,
    ScoreSeries,
    classify_response_time,
    difficulty_level,
    level_of_understanding,
    student_learning_rate,
)


def lu(tdi, cdi, qdi, deviation, rt):
    return level_of_understanding(
        LuInputs(tdi=tdi, cdi=cdi, qdi=qdi, deviation=deviation, response_time_class=rt)
    )


def test_level_of_understanding_products():
    assert lu(1, 1, 1, 5, ResponseTimeClass.NORMAL) == 5.0
    assert lu(5, 5, 5, 5, ResponseTimeClass.NORMAL) == 625.0
    assert lu(5, 5, 5, 5, ResponseTimeClass.BLIND_GUESS) == 125.0


def test_blind_guess_divides_by_five_exactly():
    for indices in ((1, 3, 5), (3, 3, 3), (5, 1, 3)):
        for deviation in (0, 2, 3, 4, 5):
            normal = lu(*indices, deviation, ResponseTimeClass.NORMAL)
            guess = lu(*indices, deviation, ResponseTimeClass.BLIND_GUESS)
            assert guess == normal / 5


def test_lu_inputs_validated():
    with pytest.raises(DomainError):
        LuInputs(tdi=2, cdi=3, qdi=3, deviation=5, response_time_class=ResponseTimeClass.NORMAL)
    with pytest.raises(DomainError):
        LuInputs(tdi=1, cdi=1, qdi=1, deviation=1, response_time_class=ResponseTimeClass.NORMAL)


def test_classify_response_time():
    assert classify_response_time(60, 250) is ResponseTimeClass.BLIND_GUESS
    assert classify_response_time(70, 250) is ResponseTimeClass.NORMAL
    assert classify_response_time(62.5, 250) is ResponseTimeClass.BLIND_GUESS


def test_student_learning_rate_signed_square():
    up = ScoreSeries(student_id="s", element_id="maths", scores=(5.0, 7.0))
    down = ScoreSeries(student_id="s", element_id="maths", scores=(7.0, 5.0))
    assert student_learning_rate(up) == 4.0
    assert student_learning_rate(down) == -4.0


def test_student_learning_rate_constant_scores():
    flat = ScoreSeries(student_id="s", element_id="maths", scores=(6.0, 6.0, 6.0))
    assert student_learning_rate(flat) == 0.0


def test_student_learning_rate_reversal_antisymmetry():
    scores = (2.0, 5.0, 4.0, 9.0)
    forward = ScoreSeries(student_id="s", element_id="e", scores=scores)
    backward = ScoreSeries(student_id="s", element_id="e", scores=scores[::-1])
    assert student_learning_rate(forward) == -student_learning_rate(backward)


def test_student_learning_rate_needs_two_scores():
    single = ScoreSeries(student_id="s", element_id="e", scores=(5.0,))
    with pytest.raises(DomainError):
        student_learning_rate(single)


def test_score_series_validates_range():
    with pytest.raises(DomainError):
        ScoreSeries(student_id="s", element_id="e", scores=(5.0, 11.0))


def test_difficulty_level_means():
    assert difficulty_level([4.0, -4.0]) == 0.0
    assert difficulty_level([4.0]) == 4.0
    assert difficulty_level([2.0, 4.0, 6.0]) == 4.0


def test_difficulty_level_of_identical_rates():
    assert difficulty_level([1.5, 1.5, 1.5]) == 1.5


def test_difficulty_level_rejects_empty():
    with pytest.raises(DomainError):
        difficulty_level([])
