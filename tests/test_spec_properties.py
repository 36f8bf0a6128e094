"""Property test: valid questionnaires survive the JSON round trip."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from edumetrics import (
    AnswerOption,
    QuestionSpec,
    QuestionnaireSpec,
    parse_questionnaire,
    serialize_questionnaire,
)
from edumetrics.domain_model import DIFFICULTY_INDICES, LU_DEVIATIONS, STANDARD_OPTION_IDS

TIMES = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
TIMES = TIMES | st.integers(min_value=1, max_value=10**6)
SUBJECTS = st.sampled_from(("Maths", "Art", "Zoë", "")) | st.text(max_size=4)
DIFFICULTY = st.sampled_from(DIFFICULTY_INDICES)


@st.composite
def options(draw, standard):
    if standard:
        ids = STANDARD_OPTION_IDS
    else:
        letters = st.characters(min_codepoint=ord("a"), max_codepoint=ord("z"))
        ids = draw(st.lists(letters, min_size=1, max_size=6, unique=True))
    correct = draw(st.integers(min_value=0, max_value=len(ids) - 1))
    return tuple(
        AnswerOption(
            option_id=option_id,
            ws_weight=4 if index == correct else draw(st.sampled_from((0, 1, 2, 3))),
            lu_deviation=draw(st.sampled_from(LU_DEVIATIONS)),
        )
        for index, option_id in enumerate(ids)
    )


@st.composite
def specs(draw):
    questions = []
    for qid in range(1, draw(st.integers(min_value=1, max_value=12)) + 1):
        questions.append(
            QuestionSpec(
                question_id=qid,
                subject=draw(SUBJECTS),
                topic_ids=draw(st.frozensets(st.integers(min_value=-3, max_value=40), max_size=3)),
                qdi=draw(DIFFICULTY),
                cdi=draw(DIFFICULTY),
                tdi=draw(DIFFICULTY),
                expected_time_s=draw(TIMES),
                options=draw(options(draw(st.booleans()))),
            )
        )
    return QuestionnaireSpec(
        questionnaire_id=draw(st.text(max_size=8)),
        questions=tuple(questions),
        max_total_time_s=draw(TIMES),
    )


@settings(max_examples=50, deadline=None, database=None)
@given(spec=specs())
def test_spec_round_trip(spec):
    text = serialize_questionnaire(spec)
    parsed = parse_questionnaire(text, allow_any_option_count=True)
    assert parsed == spec
    assert parsed.subset_layout == spec.subset_layout
    if all(tuple(o.option_id for o in q.options) == STANDARD_OPTION_IDS for q in spec.questions):
        assert parse_questionnaire(text) == spec
