"""Property test of the per-student report files: on generated classes
whose subject names need quoting, students.csv and questions.csv equal
``csv.writer`` over the row values, and students.json equals the generic
``render_json`` over the rows' ``_asdict``."""

import csv
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from edumetrics import AssessmentEvent, EventKind, SrtMode, StudentSession, build_grouping
from edumetrics.reporting import (
    METRIC_KEYS,
    attach_group_indices,
    compute_student,
    questions_csv,
    render_json,
    students_csv,
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
    """A spec with 1 to 6 questions, with or without topics, and 0 to 4
    students with a few views and answers each."""
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
    if reports:
        reports = attach_group_indices(reports, build_grouping(len(reports)))
    return reports


def _csv_reference(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".4f") if isinstance(v, float) else v for v in row])
    return buffer.getvalue()


@settings(max_examples=120, deadline=None, database=None)
@given(classes())
def test_flat_csvs_equal_csv_writer_over_the_row_values(reports):
    student_rows = []
    for report in reports:
        overall = [report.quadrant.value, *(report.group_indices[m] for m in METRIC_KEYS)]
        for row in report.subsets:
            tail = overall if row.scope == "questionnaire" else [None] * len(overall)
            student_rows.append([report.student_id, *row._asdict().values(), *tail])
    assert students_csv(reports) == _csv_reference(STUDENTS_HEADER, student_rows)

    question_rows = [[r.student_id, *q._asdict().values()] for r in reports for q in r.questions]
    assert questions_csv(reports) == _csv_reference(QUESTIONS_HEADER, question_rows)


@settings(max_examples=120, deadline=None, database=None)
@given(classes())
def test_students_json_equals_the_generic_render_of_the_row_dicts(reports):
    generic = [
        {
            "student_id": r.student_id,
            "quadrant": r.quadrant.value,
            "group_indices": r.group_indices,
            "questions": [dict(q._asdict()) for q in r.questions],
            "subsets": [dict(s._asdict()) for s in r.subsets],
        }
        for r in reports
    ]
    assert render_json([r.as_dict() for r in reports]) == render_json(generic)
