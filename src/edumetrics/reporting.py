"""Report assembly: per-student metric vectors, the class summary and the
plot-data tables behind them.

Serialized output is byte-stable: identical inputs produce identical files.
Each rule behind the bytes is stated once:

* sums of floats are ``math.fsum``, correctly rounded on every Python;
* decimals are ``_DECIMAL``, four fractional digits (round-half-even);
* JSON scalars are written by ``_json_scalar``, JSON key order is fixed by
  construction;
* CSV cells are written by ``_csv_cell``, the only user of ``csv.writer``;
* text of a value is memoized by ``_memo`` for each report, by (value,
  type), so ``1``, ``1.0`` and ``True`` keep their own;
* the per-student rows (``QuestionRow``, ``SubsetRow``, ``GroupIndices``) are
  named tuples written from their field list by ``_RowFormat``: in
  students.json each student's questions or subsets are one %-template filled
  once, in the flat CSVs each row is one template filled once; both take the
  text of the ``%s`` fields from ``_RowFormat.filled``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from functools import lru_cache
from itertools import chain, groupby, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, get_type_hints

from .analytics import (
    GroupingScheme,
    QuadrantLabel,
    approval_split,
    assign_group,
    classify_quadrant,
    compare_srt,
    disorder_stats,
    rank_mean_priorities,
)
from .composite_metrics import p, qcl, qucl
from .domain_model import (
    SCOPE_QUESTIONNAIRE,
    SCOPE_SUBJECT,
    SCOPE_TOPIC,
    QuestionnaireSpec,
    StudentSession,
)
from .isolated_metrics import question_doubt, subset_scores, transition_entropy
from .session_derivation import QuestionResponse, SrtMode, derive_answer_sequence, derive_responses

_FINAL_WEIGHT = QuestionResponse.final_weight.fget  # the property, to map over responses


class GroupIndices(NamedTuple):
    """1-based group of each overall metric in the class grouping scheme."""

    ts: int
    ws: int
    ad: int
    qucl: int


METRIC_KEYS = GroupIndices._fields


class QuestionRow(NamedTuple):
    """Per-question facts and scores for one student."""

    question_id: int
    markings: int
    doubt: int
    weight: int
    srt_s: float
    qcl: float


class SubsetRow(NamedTuple):
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


class StudentMetricsReport(NamedTuple):
    """Everything reported about one student.

    ``group_indices`` is filled in a second pass once the class size,
    and with it the grouping scheme, is known.
    """

    student_id: str
    questions: tuple[QuestionRow, ...]
    subsets: tuple[SubsetRow, ...]
    quadrant: QuadrantLabel
    group_indices: GroupIndices | None = None

    @property
    def overall(self) -> SubsetRow:
        return self.subsets[0]

    def as_dict(self) -> dict:
        """JSON form. The rows are the named tuples themselves:
        :func:`render_json` writes the question rows as one block, the subset
        rows as another and the group indices as a block of one, each row
        positionally from its field list, in declaration order."""
        return {
            "student_id": self.student_id,
            "quadrant": self.quadrant.value,
            "group_indices": self.group_indices,
            "questions": self.questions,
            "subsets": self.subsets,
        }


def compute_student(
    session: StudentSession, spec: QuestionnaireSpec, srt_mode: SrtMode, threshold: float = 0.5
) -> StudentMetricsReport:
    """Derive one student's responses and build their full metric report.

    Each per-question fact is computed once, as one column in question order;
    each row of ``spec.subset_layout`` sums the entries its getter picks from
    the columns, in the subset's order, as the metric definitions do. A subset's
    answers make one transition fewer than its markings, all in order inside a
    run of answers to one question, so one walk of the runs' heads counts only
    the step-downs for disorder (answers after one to a larger id).
    The formulas :func:`qcl`, :func:`subset_scores`, :func:`qucl` and :func:`p`
    run unchecked, as every input is in range by construction: difficulty
    indices and expected times are checked once per spec, answer weights in
    each ``AnswerOption``; ts, ws and ad are ratios of counts; a session keeps
    its events in time order and its end at or after the last: every gap is >= 0.
    """
    responses = derive_responses(session, spec, srt_mode).values()
    sequence = derive_answer_sequence(session)

    # One column per question fact, in question order.
    _, qdis, cdis, times = spec._question_columns
    qids, markings, _, srts = zip(*responses)
    weights = tuple(map(_FINAL_WEIGHT, responses))
    qcls = tuple(map(qcl, qdis, cdis, weights, srts, times))
    doubts = map(question_doubt, responses)
    rows = tuple(map(tuple.__new__, repeat(QuestionRow),
                     zip(qids, markings, doubts, weights, srts, qcls)))

    # Per subset: last question id answered (0: none) and step-downs.
    layout, holders = spec.subset_layout, spec.subsets_of_question
    last, descents = [0] * len(layout), [0] * len(layout)
    for qid, _ in groupby(sequence.question_ids):
        for i in holders[qid - 1]:
            descents[i] += last[i] > qid
            last[i] = qid

    subset_rows = []
    for (scope, element, ids), pick, steps_down in zip(layout, spec._subset_getters, descents):
        total_markings = sum(pick(markings))
        ts, ws, ad = subset_scores(pick(weights), total_markings)
        transitions = max(total_markings - 1, 0)
        subset_rows.append(tuple.__new__(SubsetRow, (
            scope, element, ts, ws, ad,
            math.fsum(pick(srts)),  # srt_s
            transition_entropy(transitions - steps_down, steps_down),  # disorder
            qucl(pick(qcls), ad, len(ids)),
            p(ts, ws),  # priority
        )))

    overall = subset_rows[0]
    return StudentMetricsReport(
        student_id=session.student_id,
        questions=rows,
        subsets=tuple(subset_rows),
        quadrant=classify_quadrant(overall.ad, overall.qucl, threshold),
    )


def _normalized(row: SubsetRow) -> tuple[float, float, float, float]:
    """The row's metrics of ``METRIC_KEYS``, in that order, on the [0, 1] scale."""
    return row.ts / 10.0, row.ws / 10.0, row.ad, row.qucl


def attach_group_indices(
    reports: Sequence[StudentMetricsReport], scheme: GroupingScheme
) -> list[StudentMetricsReport]:
    """Fill each report's per-metric group index from the class scheme."""
    return [
        report._replace(group_indices=GroupIndices._make(
            assign_group(value, scheme) for value in _normalized(report.overall)
        ))
        for report in reports
    ]


def _columns(
    reports: Sequence[StudentMetricsReport], spec: QuestionnaireSpec, *scopes: str
) -> Iterator[tuple[str | int, int, tuple[SubsetRow, ...]]]:
    """(element, question count, rows in student order) of each question set
    of the given scopes, scope by scope in ``spec.subset_layout`` order. The
    questionnaire's element is "General". An empty class has no columns."""
    for scope in scopes:
        columns = zip(*[r.subsets for r in reports])
        for (kind, element, qids), rows in zip(spec.subset_layout, columns):
            if kind == scope:
                yield ("General" if kind == SCOPE_QUESTIONNAIRE else element), len(qids), rows


def _ranking_rows(
    reports: Sequence[StudentMetricsReport], spec: QuestionnaireSpec, scope: str
) -> list[dict]:
    columns = _columns(reports, spec, scope)
    priorities = {element: [row.priority for row in rows] for element, _, rows in columns}
    return [
        {"rank": r.rank, scope: r.element, "normalized_priority": r.normalized_priority}
        for r in rank_mean_priorities(priorities)
    ]


def build_class_summary(
    reports: Sequence[StudentMetricsReport],
    spec: QuestionnaireSpec,
    scheme: GroupingScheme | None,
    threshold: float,
    srt_mode_label: str,
) -> dict:
    """Class-level report: grouping, splits, quadrant roster, priorities,
    time-vs-expected and disorder tables. Each table reduces columns of the
    class's report rows, so an empty class gets empty tables."""
    splits = []
    for metric, column in zip(METRIC_KEYS, zip(*[_normalized(r.overall) for r in reports])):
        at_or_above, below = approval_split(column, threshold)
        splits.append({"metric": metric, "at_or_above": at_or_above, "below": below})

    disorder = []
    for subject, _, rows in _columns(reports, spec, SCOPE_SUBJECT, SCOPE_QUESTIONNAIRE):
        average, positive = disorder_stats([row.disorder for row in rows])
        disorder.append({"subject": subject, "average": average, "percent_positive": positive})

    roster: dict[str, list[str]] = {label.value: [] for label in QuadrantLabel}
    for report in reports:
        roster[report.quadrant.value].append(report.student_id)

    return {
        "student_count": len(reports),
        "no_students": not reports,
        "srt_mode": srt_mode_label,
        "threshold": threshold,
        "notes": {
            "general_rows": "aggregated over every question, not averaged over subjects",
        },
        "grouping": None if scheme is None else {
            "k": scheme.k,
            "h": scheme.h,
            "bounds": [
                {"group": index + 1, "floor": floor, "ceiling": ceiling}
                for index, (floor, ceiling) in enumerate(scheme.bounds)
            ],
        },
        "approval_splits": splits,
        "quadrants": roster,
        "subject_priorities": _ranking_rows(reports, spec, SCOPE_SUBJECT),
        "topic_priorities": _ranking_rows(reports, spec, SCOPE_TOPIC),
        "srt_vs_expected": [
            vars(compare_srt(question, [row.srt_s for row in rows]))
            for question, rows in zip(spec.questions, zip(*[r.questions for r in reports]))
        ],
        "disorder": disorder,
    }


# The C function behind json.dumps(str): the same bytes without its overhead.
_quote = json.encoder.encode_basestring_ascii

_DECIMAL = "%.4f"  # every reported float: four fractional digits, as format() gives
# %-directives by field type, as typing.get_type_hints resolves it.
_DIRECTIVES = {int: "%d", float: _DECIMAL}
# A fresh memo of a cell writer per report, typed: 1, 1.0 and True keep their own text.
_memo = lru_cache(maxsize=None, typed=True)


class _RowFormat:
    """The %-templates of a named-tuple row class, from its field list: ``int``
    fields use ``%d``, ``float`` fields ``_DECIMAL`` and the rest ``%s``.
    ``csv_row`` is a row's cells joined by ``,``; a JSON run of rows
    (``indent``: a line break plus the rows' indent) is written by one template
    per (row count, indent), the rows as objects of their fields,
    comma-separated, built on first use. Both fill from :meth:`filled`."""

    def __init__(self, cls: type):
        hints = get_type_hints(cls)
        directives = {name: _DIRECTIVES.get(hints[name], "%s") for name in cls._fields}
        self.items = [f"{_quote(name)}: {d}" for name, d in directives.items()]
        self.csv_row = ",".join(directives.values())
        self.converted = [i for i, d in enumerate(directives.values()) if d == "%s"]
        self.templates: dict[tuple[int, str], str] = {}

    def filled(self, rows: Sequence, cells: Callable[[object], str]) -> Iterable[tuple]:
        """The rows, each ``%s`` field as the text ``cells`` writes for it:
        arguments, never template text, since ids and names may hold ``%``.
        A class without ``%s`` fields, or an empty run, passes as it stands."""
        if not self.converted or not rows:
            return rows
        columns = list(zip(*rows))
        for i in self.converted:
            columns[i] = map(cells, columns[i])
        return zip(*columns)

    def block(self, rows: Sequence, cells: Callable[[object], str], indent: str) -> str:
        key = (len(rows), indent)
        if key not in self.templates:
            inner = indent + "  "
            line = "{" + inner + ("," + inner).join(self.items) + indent + "}"
            self.templates[key] = ("," + indent).join([line] * len(rows))
        return self.templates[key] % tuple(chain.from_iterable(self.filled(rows, cells)))


_ROW_FORMATS = {cls: _RowFormat(cls) for cls in (QuestionRow, SubsetRow, GroupIndices)}


def _json_scalar(value) -> str:
    """JSON text of None, a bool, a float, an int or a str."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return _DECIMAL % value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _quote(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(value) -> str:
    """Serialize to JSON with fixed key order and 4-digit decimals.
    ``QuestionRow``, ``SubsetRow`` and ``GroupIndices`` values are written
    as objects of their fields."""
    out: list[str] = []
    _render(value, "\n", out, _memo(_json_scalar))
    out.append("\n")
    return "".join(out)


def _render(value, newline: str, out: list[str], cells: Callable[[object], str]) -> None:
    """Append ``value``; ``newline`` is a line break plus the current indent.
    A row is a run of one; a list or tuple of rows of one class is one run."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            out.append(f"{separator}{_quote(str(key))}: ")
            _render(item, inner, out, cells)
            separator = "," + inner
        out.append(newline + "}")
    elif kind in _ROW_FORMATS:
        out.append(_ROW_FORMATS[kind].block((value,), cells, newline))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        row_format = _ROW_FORMATS.get(type(value[0]))
        if row_format and len(set(map(type, value))) == 1:
            out.append("[" + inner + row_format.block(value, cells, inner) + newline + "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _render(item, inner, out, cells)
            separator = "," + inner
        out.append(newline + "]")
    else:
        out.append(_json_scalar(value))


def _csv_cell(value) -> str:
    """Text of ``value`` as ``csv.writer`` writes it between other fields."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((value, None))
    return buffer.getvalue()[:-2]  # without the ",\n" of None


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """CSV of the header and rows; each has 2+ cells (a lone empty one is quoted)."""
    cells = _memo(_csv_cell)
    return "".join([
        ",".join([_DECIMAL % v if isinstance(v, float) else cells(v) for v in row]) + "\n"
        for row in (header, *rows)
    ])


def groups_histogram_csv(
    reports: Sequence[StudentMetricsReport], scheme: GroupingScheme | None
) -> str:
    """Group occupancy per metric, the data behind the grouped-bars figure."""
    rows = []
    if scheme is not None:
        for metric, column in zip(METRIC_KEYS, zip(*[r.group_indices for r in reports])):
            counts = Counter(column)
            rows.extend([metric, group, counts[group]] for group in range(1, scheme.k + 1))
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
    rows = [
        [subject, math.fsum(row.srt_s / count for row in rows) / len(rows)]
        for subject, count, rows in _columns(reports, spec, SCOPE_SUBJECT, SCOPE_QUESTIONNAIRE)
    ]
    return _csv_text(("subject", "mean_srt_s"), rows)


def students_csv(reports: Sequence[StudentMetricsReport]) -> str:
    """Flat form of the per-student reports, one line per subset row, written
    from ``SubsetRow``'s field list; the quadrant and group columns are filled
    on the questionnaire row, the first, only. The group cells are empty in a
    report whose indices are not attached."""
    header = ["student_id", *SubsetRow._fields, "quadrant"]
    header += [f"group_{metric}" for metric in METRIC_KEYS]
    row_format, cells = _ROW_FORMATS[SubsetRow], _memo(_csv_cell)
    blank = "," * (1 + len(METRIC_KEYS)) + "\n"  # the quadrant and group cells
    unattached = (None,) * len(METRIC_KEYS)
    lines = [_csv_text(header, ())]
    for report in reports:
        student = cells(report.student_id) + ","
        tail = [report.quadrant.value, *(report.group_indices or unattached)]
        end = "".join(["," + cells(v) for v in tail]) + "\n"
        for line in map(row_format.csv_row.__mod__, row_format.filled(report.subsets, cells)):
            lines += student, line, end
            end = blank
    return "".join(lines)


def questions_csv(reports: Sequence[StudentMetricsReport]) -> str:
    """Flat form of the per-question rows, written from ``QuestionRow``'s field
    list."""
    header = ["student_id", *QuestionRow._fields]
    row_format, cells = _ROW_FORMATS[QuestionRow], _memo(_csv_cell)
    lines = [_csv_text(header, ())]
    for report in reports:
        student = cells(report.student_id) + ","
        for line in map(row_format.csv_row.__mod__, row_format.filled(report.questions, cells)):
            lines += student, line, "\n"
    return "".join(lines)
