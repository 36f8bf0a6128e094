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
    Scope,
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
from .literature_metrics import (
    LuInputs,
    ResponseTimeClass,
    ScoreSeries,
    classify_response_time,
    difficulty_level,
    level_of_understanding,
    student_learning_rate,
)
from .session_derivation import (
    AnswerSequence,
    QuestionResponse,
    SrtMode,
    derive_answer_sequence,
    derive_responses,
    pick_log_srt_mode,
    pick_srt_mode,
)
from .simulator import (
    BehaviorKind,
    BehaviorProfile,
    SplitMix64,
    profile_from_name,
    simulate_class,
    simulate_student,
)

__version__ = "0.1.0"
