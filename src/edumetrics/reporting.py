"""Report assembly: per-student metric vectors, the class summary and the
plot-data tables behind them.

Serialized output is byte-stable: dictionary key order is fixed by
construction and every decimal is rendered with four fractional digits
(round-half-even), so identical inputs produce identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

from .analytics import (
    GroupingScheme,
    QuadrantLabel,
    Scope,
    approval_split,
    assign_group,
    classify_quadrant,
    rank_priorities,
    srt_vs_expected,
)
from .composite_metrics import (
    comprehension_for_response,
    priority,
    questionnaire_comprehension_level,
)
from .domain_model import (
    SCOPE_QUESTIONNAIRE,
    SCOPE_SUBJECT,
    SCOPE_TOPIC,
    QuestionnaireSpec,
    StudentSession,
)
from .isolated_metrics import QuestionSubset, level_of_disorder, question_doubt
from .session_derivation import SrtMode, derive_answer_sequence, derive_responses

METRIC_KEYS = ("ts", "ws", "ad", "qucl")


@dataclass(frozen=True)
class QuestionRow:
    """Per-question facts and scores for one student."""

    question_id: int
    markings: int
    doubt: int
    weight: int
    srt_s: float
    qcl: float


@dataclass(frozen=True)
class SubsetRow:
    """Metric vector of one question set (whole questionnaire, subject or topic)."""

    scope: str
    element: str | int | None
    ts: float
    ws: float
    ad: float
    srt_s: float
    disorder: float
    qucl: float
    priority: float


@dataclass(frozen=True)
class StudentMetricsReport:
    """Everything reported about one student.

    ``group_indices`` is filled in a second pass once the class size,
    and with it the grouping scheme, is known.
    """

    student_id: str
    questions: tuple[QuestionRow, ...]
    subsets: tuple[SubsetRow, ...]
    quadrant: QuadrantLabel
    group_indices: Mapping[str, int] | None = None

    @property
    def overall(self) -> SubsetRow:
        return self.subsets[0]

    def normalized(self, metric: str) -> float:
        """Questionnaire-scope metric value on the [0, 1] scale."""
        row = self.overall
        if metric == "ts":
            return row.ts / 10.0
        if metric == "ws":
            return row.ws / 10.0
        if metric == "ad":
            return row.ad
        if metric == "qucl":
            return row.qucl
        raise KeyError(metric)

    def as_dict(self) -> dict:
        return {
            "student_id": self.student_id,
            "quadrant": self.quadrant.value,
            "group_indices": dict(self.group_indices) if self.group_indices else None,
            # Row fields are declared in report key order.
            "questions": [dict(vars(q)) for q in self.questions],
            "subsets": [dict(vars(s)) for s in self.subsets],
        }


def compute_student(
    session: StudentSession,
    spec: QuestionnaireSpec,
    srt_mode: SrtMode | None = None,
    threshold: float = 0.5,
) -> StudentMetricsReport:
    """Derive one student's responses and build their full metric report.

    Each per-question fact is computed once; every subset row of
    ``spec.subset_layout`` is then made of sums of those facts over the
    subset's questions, in the subset's order, which is the order the
    metric definitions in :mod:`isolated_metrics` sum in. Disorder
    filters the answer sequence once per subset.
    """
    responses = derive_responses(session, spec, srt_mode)
    sequence = derive_answer_sequence(session)

    question_rows = []
    correct, weight, markings, srt, qcl = {}, {}, {}, {}, {}
    for question in spec.questions:
        qid = question.question_id
        response = responses[qid]
        row = QuestionRow(
            question_id=qid,
            markings=response.markings,
            doubt=question_doubt(response),
            weight=response.final_weight,
            srt_s=response.srt_s,
            qcl=comprehension_for_response(response, question),
        )
        question_rows.append(row)
        correct[qid] = 1 if response.is_correct else 0
        weight[qid] = row.weight
        markings[qid] = row.markings
        srt[qid] = row.srt_s
        qcl[qid] = row.qcl

    subset_rows = []
    for scope, element, qids in spec.subset_layout:
        count = len(qids)
        hits = sum([correct[q] for q in qids])
        total_markings = sum([markings[q] for q in qids])
        ts = 10.0 * hits / count
        ws = 10.0 * sum([weight[q] for q in qids]) / (4 * count)
        ad = hits / total_markings if total_markings else 0.0
        subset_rows.append(
            SubsetRow(
                scope=scope,
                element=element,
                ts=ts,
                ws=ws,
                ad=ad,
                srt_s=sum([srt[q] for q in qids]),
                disorder=level_of_disorder(sequence.restricted_to(qids)),
                qucl=questionnaire_comprehension_level([qcl[q] for q in qids], ad, count),
                priority=priority(ts, ws),
            )
        )

    overall = subset_rows[0]
    return StudentMetricsReport(
        student_id=session.student_id,
        questions=tuple(question_rows),
        subsets=tuple(subset_rows),
        quadrant=classify_quadrant(overall.ad, overall.qucl, threshold),
    )


def attach_group_indices(
    reports: Sequence[StudentMetricsReport], scheme: GroupingScheme
) -> list[StudentMetricsReport]:
    """Fill each report's per-metric group index from the class scheme."""
    attached = []
    for report in reports:
        indices = {
            metric: assign_group(report.normalized(metric), scheme) for metric in METRIC_KEYS
        }
        attached.append(replace(report, group_indices=indices))
    return attached


def _rows_by_element(
    reports: Sequence[StudentMetricsReport], scope: str
) -> dict[str | int, list[SubsetRow]]:
    """Each element's subset rows of the given scope, in student order."""
    rows: dict[str | int, list[SubsetRow]] = {}
    for report in reports:
        for row in report.subsets:
            if row.scope == scope:
                rows.setdefault(row.element, []).append(row)
    return rows


def _ranking_rows(rows: dict[str | int, list[SubsetRow]], scope_label: str) -> list[dict]:
    pairs = {element: [(r.ts, r.ws) for r in group] for element, group in rows.items()}
    rankings = rank_priorities(pairs, Scope.CLASS)
    return [
        {
            "rank": r.rank,
            scope_label: r.element,
            "normalized_priority": r.normalized_priority,
        }
        for r in rankings
    ]


def build_class_summary(
    reports: Sequence[StudentMetricsReport],
    spec: QuestionnaireSpec,
    scheme: GroupingScheme | None,
    threshold: float,
    srt_mode_label: str,
) -> dict:
    """Class-level report: grouping, splits, quadrant roster, priorities,
    time-vs-expected and disorder tables."""
    count = len(reports)
    summary: dict = {
        "student_count": count,
        "no_students": count == 0,
        "srt_mode": srt_mode_label,
        "threshold": threshold,
        "notes": {
            "general_rows": "aggregated over every question, not averaged over subjects",
        },
    }
    if count == 0:
        summary.update(
            {
                "grouping": None,
                "approval_splits": [],
                "quadrants": {label.value: [] for label in QuadrantLabel},
                "subject_priorities": [],
                "topic_priorities": [],
                "srt_vs_expected": [],
                "disorder": [],
            }
        )
        return summary

    assert scheme is not None
    summary["grouping"] = {
        "k": scheme.k,
        "h": scheme.h,
        "bounds": [
            {"group": index + 1, "floor": floor, "ceiling": ceiling}
            for index, (floor, ceiling) in enumerate(scheme.bounds)
        ],
    }

    splits = []
    for metric in METRIC_KEYS:
        at_or_above, below = approval_split((r.normalized(metric) for r in reports), threshold)
        splits.append({"metric": metric, "at_or_above": at_or_above, "below": below})
    summary["approval_splits"] = splits

    roster: dict[str, list[str]] = {label.value: [] for label in QuadrantLabel}
    for report in reports:
        roster[report.quadrant.value].append(report.student_id)
    summary["quadrants"] = roster

    subject_rows = _rows_by_element(reports, SCOPE_SUBJECT)
    summary["subject_priorities"] = _ranking_rows(subject_rows, "subject")
    summary["topic_priorities"] = _ranking_rows(_rows_by_element(reports, SCOPE_TOPIC), "topic")

    # A QuestionRow's srt_s is its QuestionResponse's srt_s.
    comparisons = srt_vs_expected(
        [{q.question_id: q for q in r.questions} for r in reports],
        spec,
        QuestionSubset.whole(spec),
    )
    summary["srt_vs_expected"] = [
        {
            "question_id": row.question_id,
            "mean_srt_s": row.mean_srt_s,
            "expected_time_s": row.expected_time_s,
            "within_expected": row.within_expected,
        }
        for row in comparisons
    ]

    # Mean disorder and share of students with positive disorder, as in
    # analytics.disorder_summary, read from the rows compute_student made.
    disorder_rows = []
    groups = list(subject_rows.items())
    groups.append(("General", [report.overall for report in reports]))
    for subject, rows in groups:
        disorders = [row.disorder for row in rows]
        disorder_rows.append(
            {
                "subject": subject,
                "average": sum(disorders) / len(disorders),
                "percent_positive": sum(1 for d in disorders if d > 0) / len(disorders),
            }
        )
    summary["disorder"] = disorder_rows
    return summary


# The C function behind json.dumps(str): the same bytes without its overhead.
_quote = json.encoder.encode_basestring_ascii


def render_json(value) -> str:
    """Serialize to JSON with fixed key order and 4-digit decimals."""
    out: list[str] = []
    _render(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(value, newline: str, out: list[str]) -> None:
    """Append ``value``; ``newline`` is a line break plus the current indent.
    Floats, ints and strings in a dict are written inline with their key."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            key = _quote(str(key))
            kind = type(item)
            if kind is float:
                out.append(f"{separator}{key}: {item:.4f}")
            elif kind is int:
                out.append(f"{separator}{key}: {item}")
            elif kind is str:
                out.append(f"{separator}{key}: {_quote(item)}")
            else:
                out.append(f"{separator}{key}: ")
                _render(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _render(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, float):
        out.append(format(value, ".4f"))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        out.append(_quote(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format(v, ".4f") if isinstance(v, float) else v for v in row]
        )
    return buffer.getvalue()


def groups_histogram_csv(
    reports: Sequence[StudentMetricsReport], scheme: GroupingScheme | None
) -> str:
    """Group occupancy per metric, the data behind the grouped-bars figure."""
    rows = []
    if scheme is not None:
        for metric in METRIC_KEYS:
            counts: dict[int, int] = {}
            for report in reports:
                group = (report.group_indices or {}).get(metric)
                if group is not None:
                    counts[group] = counts.get(group, 0) + 1
            for group in range(1, scheme.k + 1):
                rows.append([metric, group, counts.get(group, 0)])
    return _csv_text(("metric", "group", "count"), rows)


def ad_vs_qucl_csv(reports: Sequence[StudentMetricsReport]) -> str:
    """Scatter data: one (assurance, comprehension) point per student."""
    rows = [
        [r.student_id, r.overall.ad, r.overall.qucl, r.quadrant.value] for r in reports
    ]
    return _csv_text(("student_id", "ad", "qucl", "quadrant"), rows)


def subject_srt_csv(
    reports: Sequence[StudentMetricsReport], spec: QuestionnaireSpec
) -> str:
    """Class mean per-question time per subject, plus a General row."""
    rows = []
    if reports:
        by_subject = _rows_by_element(reports, SCOPE_SUBJECT)
        for scope, subject, qids in spec.subset_layout:
            if scope == SCOPE_SUBJECT:
                per_student = [row.srt_s / len(qids) for row in by_subject[subject]]
                rows.append([subject, sum(per_student) / len(reports)])
        overall = [r.overall.srt_s / spec.question_count for r in reports]
        rows.append(["General", sum(overall) / len(reports)])
    return _csv_text(("subject", "mean_srt_s"), rows)


def students_csv(reports: Sequence[StudentMetricsReport]) -> str:
    """Flat form of the per-student reports, one row per subset; the
    quadrant and group columns are filled on the questionnaire row only."""
    header = ["student_id", *(f.name for f in fields(SubsetRow)), "quadrant"]
    header += [f"group_{metric}" for metric in METRIC_KEYS]
    rows = []
    for report in reports:
        indices = report.group_indices or {}
        overall = [report.quadrant.value, *(indices.get(m) for m in METRIC_KEYS)]
        blank = [None] * len(overall)
        for row in report.subsets:
            tail = overall if row.scope == SCOPE_QUESTIONNAIRE else blank
            rows.append([report.student_id, *vars(row).values(), *tail])
    return _csv_text(header, rows)


def questions_csv(reports: Sequence[StudentMetricsReport]) -> str:
    """Flat form of the per-question rows."""
    header = ["student_id", *(f.name for f in fields(QuestionRow))]
    rows = [[r.student_id, *vars(q).values()] for r in reports for q in r.questions]
    return _csv_text(header, rows)
