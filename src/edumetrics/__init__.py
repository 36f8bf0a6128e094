"""Learning-analytics engine for multiple-choice assessment event logs.

Pipeline: parse a questionnaire spec and an event log
(:mod:`edumetrics.domain_model`), derive per-question facts
(:mod:`edumetrics.session_derivation`), compute per-student metrics
(:mod:`edumetrics.isolated_metrics`, :mod:`edumetrics.composite_metrics`,
:mod:`edumetrics.literature_metrics`), aggregate them per class
(:mod:`edumetrics.analytics`) and emit reports
(:mod:`edumetrics.reporting`, :mod:`edumetrics.cli`). A deterministic
simulator (:mod:`edumetrics.simulator`) generates synthetic students
with known metric outcomes.
"""

from .analytics import (
    GroupingScheme,
    PriorityRanking,
    QuadrantLabel,
    SrtComparison,
    approval_split,
    assign_group,
    build_grouping,
    classify_quadrant,
    disorder_summary,
    rank_priorities,
    srt_vs_expected,
)
from .composite_metrics import (
    ComprehensionInputs,
    comprehension_for_response,
    comprehension_for_subset,
    effective_comprehension_level,
    max_comprehension_level,
    priority,
    question_comprehension_level,
    questionnaire_comprehension_level,
)
from .domain_model import (
    AnswerOption,
    AssessmentEvent,
    EventKind,
    QuestionSpec,
    QuestionnaireSpec,
    StudentSession,
    event_log_csv,
    parse_event_log,
    parse_questionnaire,
    serialize_questionnaire,
)
from .errors import (
    DomainError,
    EduMetricsError,
    ParseError,
    SimulationError,
    ValidationError,
)
from .isolated_metrics import (
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
from .session_derivation import (
    AnswerSequence,
    QuestionResponse,
    SrtMode,
    derive_answer_sequence,
    derive_responses,
    pick_log_srt_mode,
)

__version__ = "0.1.0"

# Names whose modules load on first use, so ``edumetrics compute`` never
# imports them (PEP 562).
_LAZY = {
    "LuInputs": "literature_metrics",
    "ResponseTimeClass": "literature_metrics",
    "ScoreSeries": "literature_metrics",
    "classify_response_time": "literature_metrics",
    "difficulty_level": "literature_metrics",
    "level_of_understanding": "literature_metrics",
    "student_learning_rate": "literature_metrics",
    "BehaviorKind": "simulator",
    "BehaviorProfile": "simulator",
    "SplitMix64": "simulator",
    "profile_from_name": "simulator",
    "simulate_class": "simulator",
    "simulate_student": "simulator",
}
# Star imports get every public name, loaded or not.
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
