"""The package's public names: some resolve on first use, all as before."""

import re
from pathlib import Path

import pytest

import edumetrics

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name the package exported when all its modules loaded with it.
PUBLIC_NAMES = (
    "AnswerOption", "AnswerSequence", "AssessmentEvent", "BehaviorKind", "BehaviorProfile",
    "ComprehensionInputs", "DomainError", "EduMetricsError", "EventKind", "GroupingScheme",
    "LuInputs", "ParseError", "PriorityRanking", "QuadrantLabel", "QuestionResponse",
    "QuestionSpec", "QuestionSubset", "QuestionnaireSpec", "ResponseTimeClass", "ScoreSeries",
    "SimulationError", "SplitMix64", "SrtComparison", "SrtMode", "StudentSession",
    "ValidationError", "__version__", "approval_split", "assign_group", "assurance_degree",
    "build_grouping", "classify_quadrant", "classify_response_time", "comprehension_for_response",
    "comprehension_for_subset", "derive_answer_sequence", "derive_responses", "difficulty_level",
    "disorder_summary", "effective_comprehension_level", "error_rate", "event_log_csv",
    "level_of_disorder", "level_of_understanding", "max_comprehension_level", "parse_event_log",
    "parse_questionnaire", "pick_log_srt_mode", "priority", "profile_from_name",
    "question_comprehension_level", "question_doubt", "questionnaire_comprehension_level",
    "rank_priorities", "serialize_questionnaire", "simulate_class", "simulate_student",
    "srt_vs_expected", "student_learning_rate", "student_response_time", "subject_subsets",
    "topic_subsets", "traditional_score", "weighted_score",
)


@pytest.fixture
def unresolved(monkeypatch):
    """The package as a fresh import leaves it: no name that loads on first use resolved."""
    for name in edumetrics._LAZY:
        monkeypatch.delitem(vars(edumetrics), name, raising=False)


def from_import(name):
    namespace = {}
    exec(f"from edumetrics import {name}", namespace)
    return namespace[name]


@pytest.mark.parametrize(
    "resolve", [lambda name: getattr(edumetrics, name), from_import], ids=["getattr", "from-import"]
)
def test_every_public_name_resolves(unresolved, resolve):
    for name in PUBLIC_NAMES:
        assert resolve(name) is getattr(edumetrics, name), name


def test_lazy_names_are_the_defining_modules_objects(unresolved):
    assert edumetrics.simulate_class is edumetrics.simulator.simulate_class
    assert edumetrics.LuInputs is edumetrics.literature_metrics.LuInputs


def test_dir_and_star_import_list_every_public_name(unresolved):
    assert set(PUBLIC_NAMES) <= set(dir(edumetrics))
    namespace = {}
    exec("from edumetrics import *", namespace)
    assert set(PUBLIC_NAMES) - {"__version__"} <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'edumetrics' has no attribute 'no_such'$"):
        edumetrics.no_such


def test_range_rule_is_spelled_only_in_errors():
    """Every metric range check goes through ``errors.check_range``: no other
    module writes the rule's message itself."""
    spelled = {p.name for p in SRC.rglob("*.py") if "must lie in" in p.read_text(encoding="utf-8")}
    assert spelled == {"errors.py"}


def test_finite_is_spelled_only_in_errors():
    """``errors.FLOAT_MAX`` is the one spelling of "finite": ``math.inf`` lets
    an int too large for a float past a ``< math.inf`` check."""
    texts = {p.name: p.read_text(encoding="utf-8") for p in SRC.rglob("*.py")}
    assert [name for name, text in texts.items() if "math.inf" in text] == []
    assert {name for name, text in texts.items() if "float_info" in text} == {"errors.py"}


def test_int_rule_is_spelled_only_in_errors():
    """``errors.is_int`` is the one spelling of "an int, not a bool": a bare
    ``isinstance(x, int)`` lets ``True`` through, ``x < 0`` or ``x in (1, 3, 5)``
    a bool or a whole float."""
    spelled = re.compile(r"not\s+isinstance\(\s*[\w.]+\s*,\s*int\s*\)")
    texts = {p.name: p.read_text(encoding="utf-8") for p in SRC.rglob("*.py")}
    assert [name for name, text in texts.items() if spelled.search(text)] in ([], ["errors.py"])
