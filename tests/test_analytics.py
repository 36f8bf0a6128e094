import logging
import math
import random
from itertools import chain

import pytest

from edumetrics import (
    AnswerSequence,
    DomainError,
    QuadrantLabel,
    QuestionSubset,
    approval_split,
    assign_group,
    build_grouping,
    classify_quadrant,
    disorder_summary,
    level_of_disorder,
    rank_priorities,
    srt_vs_expected,
)
from helpers import make_question, make_spec, mmss, responses_for

TABLE_BOUNDS = [
    (0.0000, 0.1667),
    (0.1667, 0.3333),
    (0.3333, 0.5000),
    (0.5000, 0.6667),
    (0.6667, 0.8333),
    (0.8333, 1.0000),
]


def test_grouping_for_33_students():
    scheme = build_grouping(33)
    assert scheme.k == 6
    assert scheme.h == pytest.approx(0.1667, abs=5e-3)
    for (floor, ceiling), (want_floor, want_ceiling) in zip(scheme.bounds, TABLE_BOUNDS):
        assert floor == pytest.approx(want_floor, abs=5e-3)
        assert ceiling == pytest.approx(want_ceiling, abs=5e-3)


def test_grouping_single_student():
    scheme = build_grouping(1)
    assert scheme.k == 1
    assert scheme.bounds == ((0.0, 1.0),)


def test_grouping_hundred_students():
    scheme = build_grouping(100)
    assert scheme.k == 10
    assert scheme.h == pytest.approx(0.1)


def test_assign_group_worked_cases():
    scheme = build_grouping(33)
    assert assign_group(0.5, scheme) == 4
    assert assign_group(0.0, scheme) == 1
    assert assign_group(1.0, scheme) == 6


def test_assign_group_floor_is_closed():
    scheme = build_grouping(33)
    floor_of_group_2 = scheme.bounds[1][0]
    assert assign_group(floor_of_group_2, scheme) == 2


def test_assign_group_rejects_out_of_range():
    scheme = build_grouping(33)
    with pytest.raises(DomainError):
        assign_group(-0.1, scheme)
    with pytest.raises(DomainError):
        assign_group(1.1, scheme)


def test_assign_group_is_total_and_unique():
    rnd = random.Random(3)
    for count in (1, 2, 17, 33, 100, 10_000, 2**20):
        scheme = build_grouping(count)
        values = [rnd.random() for _ in range(200)] + [0.0, 1.0]
        for bound in chain.from_iterable(scheme.bounds):
            values += [bound, math.nextafter(bound, -1), math.nextafter(bound, 2)]
        for value in filter(lambda v: 0 <= v <= 1, values):
            group = assign_group(value, scheme)
            assert 1 <= group <= scheme.k
            floor, ceiling = scheme.bounds[group - 1]
            if group < scheme.k:
                assert floor <= value < ceiling
            else:
                assert floor <= value <= ceiling


def test_approval_split_counts():
    values = [0.6] * 25 + [0.4] * 8
    assert approval_split(values, 0.5) == (25, 8)
    assert approval_split([], 0.5) == (0, 0)
    assert approval_split([0.5, 0.5], 0.5) == (2, 0)


def test_classify_quadrant_worked_cases():
    assert classify_quadrant(0.875, 0.8352) is QuadrantLabel.Q1
    assert classify_quadrant(0.2857, 0.2839) is QuadrantLabel.Q3
    assert classify_quadrant(0.5, 0.5) is QuadrantLabel.Q1


def test_classify_quadrant_other_quadrants():
    assert classify_quadrant(0.2, 0.8) is QuadrantLabel.Q2
    assert classify_quadrant(0.8571, 0.3523) is QuadrantLabel.Q4


def test_quadrants_partition_the_plane():
    rnd = random.Random(4)
    points = [(rnd.random(), rnd.random()) for _ in range(500)]
    points += [(0.5, 0.5), (0.0, 0.0), (1.0, 1.0), (0.5, 0.0), (0.0, 0.5)]
    for ad, qucl in points:
        label = classify_quadrant(ad, qucl)
        wanted = {
            (True, True): QuadrantLabel.Q1,
            (False, True): QuadrantLabel.Q2,
            (False, False): QuadrantLabel.Q3,
            (True, False): QuadrantLabel.Q4,
        }[(ad >= 0.5, qucl >= 0.5)]
        assert label is wanted


def test_rank_priorities_student_scope():
    # Three-question topic: hits on two of three, weights 4, 2, 4.
    ts = 10 * 2 / 3
    ws = 10 * (4 + 2 + 4) / 12
    rankings = rank_priorities({17: [(ts, ws)], 81: [(10.0, 5.0)]})
    assert rankings[0].element == 17
    assert rankings[0].normalized_priority == pytest.approx(0.278, abs=5e-3)
    assert rankings[-1].element == 81
    assert rankings[-1].normalized_priority == 0.0


def test_rank_priorities_class_scope_averages_first():
    pairs = {"maths": [(5.0, 4.0), (2.0, 5.0)]}
    rankings = rank_priorities(pairs)
    expected = ((10 - 5) * 0.4 + (10 - 2) * 0.5) / 2 / 10
    assert rankings[0].normalized_priority == pytest.approx(expected)


def test_rank_priorities_two_student_example():
    # Priorities 2.0 and 4.0 average to 3.0, normalizing to 0.30.
    rankings = rank_priorities({"s": [(8.0, 10.0), (6.0, 10.0)]})
    assert rankings[0].normalized_priority == pytest.approx(0.30)


def test_rank_priorities_deterministic_under_permutation():
    items = {"b": [(5.0, 4.0)], "a": [(5.0, 4.0)], "c": [(1.0, 2.0)]}
    forward = rank_priorities(items)
    backward = rank_priorities(dict(reversed(items.items())))
    assert [(r.rank, r.element) for r in forward] == [(r.rank, r.element) for r in backward]
    assert [r.element for r in forward] == ["a", "b", "c"]


def test_rank_priorities_skips_empty_elements_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        rankings = rank_priorities({"full": [(5.0, 5.0)], "empty": []})
    assert [r.element for r in rankings] == ["full"]
    assert [(r.name, r.levelno) for r in caplog.records if "empty" in r.message] == [
        ("edumetrics.analytics", logging.WARNING)
    ]


def test_srt_vs_expected_flags():
    questions = [
        make_question(1, expected_time_s=float(mmss("03:20"))),
        make_question(2, expected_time_s=float(mmss("03:00"))),
        make_question(3, expected_time_s=60.0),
    ]
    spec = make_spec(questions)
    student_a = responses_for(spec, [4, 4, 4], srts=[float(mmss("04:47")), float(mmss("02:17")), 60.0])
    rows = srt_vs_expected([student_a], spec, QuestionSubset.whole(spec))
    assert rows[0].within_expected is False
    assert rows[1].within_expected is True
    assert rows[2].within_expected is True


def test_srt_vs_expected_means_over_students():
    spec = make_spec(n=1)
    students = [
        responses_for(spec, [4], srts=[100.0]),
        responses_for(spec, [4], srts=[200.0]),
    ]
    rows = srt_vs_expected(students, spec, [1])
    assert rows[0].mean_srt_s == pytest.approx(150.0)


def test_srt_vs_expected_needs_students():
    spec = make_spec(n=1)
    with pytest.raises(DomainError):
        srt_vs_expected([], spec, [1])


@pytest.mark.parametrize("qid, message", [
    (1, "no response derived for question 1"),
    (9, "question 9 is not in the spec"),
])
def test_srt_vs_expected_reads_responses_as_the_subset_metrics_do(qid, message):
    spec = make_spec(n=1)
    with pytest.raises(DomainError, match=f"^{message}$"):
        srt_vs_expected([{}], spec, [qid])


def seq(*ids):
    return AnswerSequence(ids)


def test_disorder_summary_all_ordered():
    assert disorder_summary([seq(1, 2, 3), seq(1, 2)]) == (0.0, 0.0)


def test_disorder_summary_mixed_class():
    average, positive = disorder_summary([seq(1, 3, 2), seq(1, 2, 3)])
    assert average == pytest.approx(0.5)
    assert positive == pytest.approx(0.5)


def test_disorder_summary_average_matches_per_student_values():
    sequences = [seq(1, 2, 3, 5, 1, 4, 1), seq(2, 1, 3), seq(1, 2)]
    average, positive = disorder_summary(sequences)
    individual = [level_of_disorder(s) for s in sequences]
    assert average == pytest.approx(sum(individual) / 3)
    assert positive == pytest.approx(2 / 3)


def test_disorder_summary_subset_filter():
    # Restricted to questions 1-3 both students answered in order.
    sequences = [seq(1, 5, 2, 3), seq(5, 1, 2, 3)]
    average, positive = disorder_summary(sequences, question_ids=[1, 2, 3])
    assert (average, positive) == (0.0, 0.0)


def test_disorder_summary_needs_students():
    with pytest.raises(DomainError):
        disorder_summary([])
