"""Property test of the report files: on generated classes whose subject
names need quoting, students.csv, questions.csv and the plot-data CSVs equal
``csv.writer`` over the row values, and students.json equals the generic
``render_json`` over the rows' ``_asdict``."""

import csv
import io
from statistics import fmean

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from edumetrics import AssessmentEvent, EventKind, SrtMode, StudentSession, build_grouping
from edumetrics.reporting import (
    METRIC_KEYS,
    ad_vs_qucl_csv,
    attach_group_indices,
    compute_student,
    groups_histogram_csv,
    questions_csv,
    render_json,
    students_csv,
    subject_srt_csv,
)
from helpers import make_question, make_spec

# Names csv has to quote, or that a %-template could misread.
SUBJECTS = st.sampled_from([",", '"', "\r", "\n", "a\r\nb", "%", "%s", "%d%%", "Ünïcødé", "日本",
                            '""', "", " pad ", "Algebra"]) | st.text(max_size=5)
# Student ids exclude what the event log reserves: , " \r \n.
STUDENT_IDS = st.text(
    st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)), min_size=1, max_size=6
)

STUDENTS_HEADER = ["student_id", "scope", "element", "ts", "ws", "ad", "srt_s", "disorder",
                   "qucl", "priority", "quadrant", "group_ts", "group_ws", "group_ad", "group_qucl"]
QUESTIONS_HEADER = ["student_id", "question_id", "markings", "doubt", "weight", "srt_s", "qcl"]


@st.composite
def classes(draw):
    """(spec, grouping scheme or None, reports): a spec with 1 to 6
    questions, with or without topics, and 0 to 4 students with a few views
    and answers each. The scheme is None when no group indices are attached:
    in an empty class, and in some draws as ``compute_student`` leaves them."""
    with_topics = draw(st.booleans())
    spec = make_spec([
        make_question(
            qid,
            subject=draw(SUBJECTS),
            topics=tuple(draw(st.sets(st.integers(1, 3), max_size=2))) if with_topics else (),
        )
        for qid in range(1, draw(st.integers(1, 6)) + 1)
    ])
    sessions = []
    for student in draw(st.lists(STUDENT_IDS, max_size=4, unique=True)):
        stamp, events = 0, []
        for _ in range(draw(st.integers(0, 6))):
            question = draw(st.sampled_from(spec.questions))
            answer = draw(st.booleans())
            stamp += draw(st.integers(0, 300_000))
            events.append(AssessmentEvent(
                student_id=student, question_id=question.question_id,
                kind=EventKind.ANSWER if answer else EventKind.VIEW,
                option_id=draw(st.sampled_from("abcde")) if answer else None, timestamp_ms=stamp,
            ))
        sessions.append(StudentSession(student, tuple(events), stamp + draw(st.integers(0, 9999))))
    mode = draw(st.sampled_from(SrtMode))
    reports = [compute_student(session, spec, mode) for session in sessions]
    scheme = build_grouping(len(reports)) if reports and draw(st.booleans()) else None
    if scheme:
        reports = attach_group_indices(reports, scheme)
    return spec, scheme, reports


def _csv_reference(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".4f") if isinstance(v, float) else v for v in row])
    return buffer.getvalue()


@settings(max_examples=120, deadline=None, database=None)
@given(classes())
def test_flat_csvs_equal_csv_writer_over_the_row_values(case):
    _, _, reports = case
    student_rows = []
    for report in reports:
        overall = [report.quadrant.value, *(report.group_indices or [None] * len(METRIC_KEYS))]
        for row in report.subsets:
            tail = overall if row.scope == "questionnaire" else [None] * len(overall)
            student_rows.append([report.student_id, *row._asdict().values(), *tail])
    assert students_csv(reports) == _csv_reference(STUDENTS_HEADER, student_rows)

    question_rows = [[r.student_id, *q._asdict().values()] for r in reports for q in r.questions]
    assert questions_csv(reports) == _csv_reference(QUESTIONS_HEADER, question_rows)


@settings(max_examples=120, deadline=None, database=None)
@given(classes())
def test_plot_data_csvs_equal_csv_writer_over_the_row_values(case):
    spec, scheme, reports = case
    histogram_rows = [
        [metric, group, sum(getattr(r.group_indices, metric) == group for r in reports)]
        for metric in (METRIC_KEYS if scheme else ()) for group in range(1, scheme.k + 1)
    ]
    assert groups_histogram_csv(reports, scheme) == _csv_reference(
        ("metric", "group", "count"), histogram_rows
    )

    scatter_rows = [[r.student_id, r.overall.ad, r.overall.qucl, r.quadrant.value] for r in reports]
    assert ad_vs_qucl_csv(reports) == _csv_reference(("student_id", "ad", "qucl", "quadrant"),
                                                     scatter_rows)

    # Subjects in layout order, then the whole questionnaire as "General".
    columns = list(zip(*[r.subsets for r in reports]))
    columns = [c for c in columns if c[0].scope == "subject"] + [columns[0]] if columns else []
    srt_rows = []
    for column in columns:
        general, subject = column[0].scope == "questionnaire", column[0].element
        count = sum(general or q.subject == subject for q in spec.questions)
        srt_rows.append(["General" if general else subject, fmean([r.srt_s / count for r in column])])
    assert subject_srt_csv(reports, spec) == _csv_reference(("subject", "mean_srt_s"), srt_rows)


@settings(max_examples=120, deadline=None, database=None)
@given(classes())
def test_students_json_equals_the_generic_render_of_the_row_dicts(case):
    _, _, reports = case
    generic = [
        {
            "student_id": r.student_id,
            "quadrant": r.quadrant.value,
            "group_indices": r.group_indices and dict(r.group_indices._asdict()),
            "questions": [dict(q._asdict()) for q in r.questions],
            "subsets": [dict(s._asdict()) for s in r.subsets],
        }
        for r in reports
    ]
    assert render_json([r.as_dict() for r in reports]) == render_json(generic)
