import csv
import hashlib
import io

import pytest

from edumetrics import (
    AnswerSequence,
    ComprehensionInputs,
    EventKind,
    QuestionSubset,
    SrtMode,
    StudentSession,
    assurance_degree,
    build_grouping,
    comprehension_for_subset,
    derive_answer_sequence,
    derive_responses,
    event_log_csv,
    level_of_disorder,
    pick_log_srt_mode,
    priority,
    profile_from_name,
    rank_priorities,
    serialize_questionnaire,
    simulate_class,
    student_response_time,
    traditional_score,
    weighted_score,
)
from edumetrics import analytics
from edumetrics.cli import main
from edumetrics.analytics import QuadrantLabel
from edumetrics.reporting import (
    GroupIndices,
    QuestionRow,
    StudentMetricsReport,
    SubsetRow,
    _csv_text,
    attach_group_indices,
    build_class_summary,
    compute_student,
    questions_csv,
    render_json,
    students_csv,
    subject_srt_csv,
)
from helpers import answer_event, make_question, make_session, make_spec, view_event

PROFILES = ("assured", "guesser", "self-corrector", "disordered")

# sha256 of every report file written by `compute --format csv` for the
# class of `_write_inputs`, recorded from the implementation that
# computed each subset metric through the public metric functions.
REPORT_DIGESTS = {
    "students.json": "12919545cff03d19747e5fc8141728ad86803716e924c5f77de0b9d4290d2bfd",
    # class.json re-recorded when reported sums became math.fsum (one mean_srt_s moved).
    "class.json": "78e9adc9e5d2e5996f9130abd26ddf2327e5b3c340c5c146fdfa28eaeb86c692",
    "students.csv": "782517151ecb2b16869eec9062cb06776700437d582c6f3ec4e7d7ca24a767af",
    "questions.csv": "e5866c9eba9c2c3fc1c1a394f187e03fc95cfdaa91fc713c2d5a1ba77e0a6f18",
    "plotdata/groups_histogram.csv": "f28417cf35619324e733bef00142059a241dae77fa047666fc1431a40bc782de",
    "plotdata/ad_vs_qucl.csv": "3da415cdc03fd597e5406689ec256d4295fda2a5089cce94520445e3914a1c0d",
    "plotdata/subject_srt.csv": "2569d10986ba17a6161543da0a5a4e48765a8727c13db4caa2deb3ff7d2a2291",
}

# The same for `compute --srt-mode answer --format csv`, recorded from the
# implementation that derived answer intervals one answer event at a time.
# The simulator opens each view at the time of the answer before it, so
# only class.json, which names the mode, differs from REPORT_DIGESTS.
ANSWER_MODE_DIGESTS = {
    **REPORT_DIGESTS,
    "class.json": "f900421038b470ab1d7bdba10b02aabfcfdcc0a7cdda2445c7809dba744c1e0e",
}

# A hand-written log for `_overlapping_spec` on which the srt modes differ.
# Every first answer follows a view with dwell time. s1 goes back from
# question 5 to 2 and from 9 to 1 and answers them again: step-downs in the
# questionnaire, Algebra and topics 1, 2, 4 and 5. s1 and s2 end with an end
# row after their last answer; s3 views question 7 and never answers it.
VIEW_LOG = """\
student_id,question_id,event,option_id,timestamp_ms
s1,1,view,,0
s1,1,answer,b,42000
s1,2,view,,43000
s1,2,answer,a,80000
s1,5,view,,81000
s1,5,answer,c,140000
s1,2,view,,141000
s1,2,answer,b,160000
s1,9,view,,161000
s1,9,answer,a,230000
s1,1,view,,231000
s1,1,answer,a,250000
s1,,end,,300000
s2,3,view,,1000
s2,3,answer,a,65000
s2,3,answer,b,71000
s2,4,view,,72000
s2,4,answer,c,100000
s2,6,view,,102000
s2,6,answer,b,170000
s2,12,view,,171000
s2,12,answer,e,260000
s2,,end,,320000
s3,7,view,,0
s3,8,view,,30000
s3,8,answer,d,95000
s3,10,view,,96000
s3,10,answer,a,150000
s3,11,view,,152000
s3,11,answer,b,200000
"""

# The same for `compute --srt-mode view --format csv` on VIEW_LOG, recorded
# from the implementation that counted every subset's in-order transitions.
VIEW_MODE_DIGESTS = {
    "students.json": "66644a1b44e718f5e997bbf5e28f48017ecd9d495a5cca0f4a0558c56913cf74",
    "class.json": "e201f4b63e3b98c7bbf97ea864609427d19c5cf6268f61ba6865abd5a94890b5",
    "students.csv": "4030a09fba94ebeb06f6fd98aeb1eee894b91bac64b444781c1fac5fcbd83ec7",
    "questions.csv": "034605a6467623f78326c11f4b4724fcd92caeb8969470c8b4a88966e6c4e2b8",
    "plotdata/groups_histogram.csv": "46bbace5117638dbb89e96380b470fa5b79f1bbe47a282de102dcad16e669fa1",
    "plotdata/ad_vs_qucl.csv": "8ce964479f42bfccf9d49a4076ff068ac8ce6c624db5ab98e029f1bd8858efec",
    "plotdata/subject_srt.csv": "1c1a2f741f5af2e2dc5a8bba51a5893ef6bc400aa2343a6d2d220a17e6056367",
}


def _overlapping_spec():
    """12 questions over 3 subjects; each question sits in 3 of 5 topics."""
    questions = [
        make_question(
            i + 1,
            subject=("Algebra", "Geometry", "Statistics")[i // 4],
            topics=tuple(sorted({i % 5 + 1, (i + 2) % 5 + 1, (i + 3) % 5 + 1})),
            qdi=(1, 3, 5)[i % 3],
            cdi=(1, 3, 5)[(i // 3) % 3],
            expected_time_s=45.0 + 15 * (i % 4),
            weights=((4, 3, 2, 1, 0), (0, 4, 3, 2, 1), (1, 0, 4, 3, 2))[i % 3],
        )
        for i in range(12)
    ]
    return make_spec(questions)


def _unsorted_spec():
    """9 questions whose subjects cycle B, A, C and whose topics descend."""
    questions = [
        make_question(
            i + 1,
            subject="BAC"[i % 3],
            topics=((7 - i) % 4 + 1, (5 - i) % 6 + 3),
            qdi=(5, 1, 3)[i % 3],
            cdi=(3, 5, 1)[(i // 2) % 3],
            expected_time_s=80.0 - 10 * (i % 3),
            weights=((0, 4, 3, 2, 1), (4, 3, 2, 1, 0))[i % 2],
        )
        for i in range(9)
    ]
    return make_spec(questions)


def _sessions(spec, per_profile=3, seed=2024):
    sessions = []
    for index, name in enumerate(PROFILES):
        profile = profile_from_name(name, seed + 100 * index)
        sessions.extend(simulate_class(profile, spec, per_profile, id_prefix=f"{name}-"))
    return sessions


def _write_inputs(tmp_path):
    spec = _overlapping_spec()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(serialize_questionnaire(spec), encoding="utf-8")
    events_path = tmp_path / "events.csv"
    events_path.write_text(event_log_csv(_sessions(spec)), encoding="utf-8")
    return spec_path, events_path


def report_digests(tmp_path, *options, events=None, output="csv"):
    """Digests of the reports that `compute --format OUTPUT` writes on
    `_write_inputs`, with ``events`` as the log's text when it is given."""
    spec_path, events_path = _write_inputs(tmp_path)
    if events is not None:
        events_path.write_text(events, encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(
        [
            "compute", "--spec", str(spec_path), "--events", str(events_path),
            "--out", str(out_dir), "--format", output, *options,
        ]
    )
    assert code == 0
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in REPORT_DIGESTS
        if (out_dir / name).exists()
    }


def test_report_bytes_match_recorded_digests(tmp_path):
    assert report_digests(tmp_path) == REPORT_DIGESTS


def test_answer_mode_report_bytes_match_recorded_digests(tmp_path):
    assert report_digests(tmp_path, "--srt-mode", "answer") == ANSWER_MODE_DIGESTS


def test_view_mode_report_bytes_match_recorded_digests(tmp_path):
    assert report_digests(tmp_path, "--srt-mode", "view", events=VIEW_LOG) == VIEW_MODE_DIGESTS


def test_json_only_run_writes_the_reports_of_the_csv_run(tmp_path):
    # Every digest above comes from a --format csv run; the json run writes
    # the same five files without the flat CSVs.
    (tmp_path / "csv").mkdir()
    (tmp_path / "json").mkdir()
    with_csv = report_digests(tmp_path / "csv")
    flat = {"students.csv", "questions.csv"}
    assert report_digests(tmp_path / "json", output="json") == {
        name: digest for name, digest in with_csv.items() if name not in flat
    }


def test_srt_modes_give_different_student_reports_on_a_log_with_dwell_time(tmp_path):
    digests = {}
    for mode in ("view", "answer"):
        (tmp_path / mode).mkdir()
        digests[mode] = report_digests(tmp_path / mode, "--srt-mode", mode, events=VIEW_LOG)
    for name in ("students.json", "students.csv", "questions.csv"):
        assert digests["view"][name] != digests["answer"][name]


def test_reported_sums_are_correctly_rounded():
    """Ten answers 100 ms apart: ten srt of 0.1 s add up to exactly 1.0,
    where a left fold gives 0.9999999999999999 on Python before 3.12."""
    spec = make_spec(n=10)
    events = [view_event("s1", 1, 0)]
    events += [answer_event("s1", qid, "a", 100 * qid) for qid in range(1, 11)]
    session = make_session(events)
    report = compute_student(session, spec, SrtMode.ANSWER_INTERVALS)
    assert [q.srt_s for q in report.questions] == [0.1] * 10
    assert report.overall.srt_s == 1.0
    responses = derive_responses(session, spec, SrtMode.ANSWER_INTERVALS)
    assert student_response_time(responses, range(1, 11)) == 1.0


def test_a_question_answered_again_after_another_is_no_step_down_in_its_topic():
    """Answers to 1, 2, 1, 3: topic 1 (questions 1 and 3) sees 1, 1, 3, two
    transitions in order, so its disorder is 0; the whole questionnaire sees
    one step-down (2 to 1) in three transitions."""
    spec = make_spec([make_question(1, topics=(1,)), make_question(2, topics=(2,)),
                      make_question(3, topics=(1,))])
    session = make_session([answer_event("s1", qid, "a", 1000 * (i + 1))
                            for i, qid in enumerate((1, 2, 1, 3))])
    report = compute_student(session, spec, SrtMode.ANSWER_INTERVALS)
    disorder = {(row.scope, row.element): row.disorder for row in report.subsets}
    assert disorder[("topic", 1)] == 0.0
    assert disorder[("topic", 2)] == 0.0
    whole = level_of_disorder(derive_answer_sequence(session))
    assert disorder[("questionnaire", None)] == disorder[("subject", "General")] == whole
    assert 0.9 < whole < 1.0  # entropy of 2 transitions in order and 1 step-down


def test_compute_student_rows_equal_metric_definitions():
    spec = _overlapping_spec()
    sessions = _sessions(spec, per_profile=4, seed=77)
    for session in sessions:
        report = compute_student(session, spec, SrtMode.VIEW_INTERVALS)
        responses = derive_responses(session, spec, SrtMode.VIEW_INTERVALS)
        sequence = derive_answer_sequence(session)
        expected_keys = [("questionnaire", None)]
        expected_keys += [("subject", s) for s in spec.subjects()]
        expected_keys += [("topic", t) for t in spec.topics()]
        assert [(row.scope, row.element) for row in report.subsets] == expected_keys
        for row in report.subsets:
            if row.scope == "questionnaire":
                subset = QuestionSubset.whole(spec)
            elif row.scope == "subject":
                subset = QuestionSubset.for_subject(spec, row.element)
            else:
                subset = QuestionSubset.for_topic(spec, row.element)
            ts = traditional_score(responses, spec, subset)
            ws = weighted_score(responses, spec, subset)
            where = (session.student_id, row.scope, row.element)
            assert row.ts == ts, where
            assert row.ws == ws, where
            assert row.ad == assurance_degree(responses, spec, subset), where
            assert row.srt_s == student_response_time(responses, subset), where
            assert row.disorder == level_of_disorder(sequence.restricted_to(subset)), where
            assert row.qucl == comprehension_for_subset(responses, spec, subset), where
            assert row.priority == priority(ts, ws), where


@pytest.mark.parametrize(
    "pick, field",
    [
        (lambda report: report, "student_id"),
        (lambda report: report, "group_indices"),
        (lambda report: report.questions[0], "qcl"),
        (lambda report: report.subsets[0], "ts"),
    ],
    ids=["report", "report-groups", "question-row", "subset-row"],
)
def test_report_rows_are_immutable(pick, field):
    spec = _overlapping_spec()
    target = pick(compute_student(_sessions(spec, per_profile=1)[0], spec, SrtMode.VIEW_INTERVALS))
    with pytest.raises(AttributeError):
        setattr(target, field, getattr(target, field))


def test_group_indices_are_immutable():
    spec = _overlapping_spec()
    sessions = _sessions(spec, per_profile=1)
    reports = [compute_student(s, spec, SrtMode.VIEW_INTERVALS) for s in sessions]
    reports = attach_group_indices(reports, build_grouping(4))
    with pytest.raises(TypeError):
        reports[0].group_indices["ts"] = 99


def _answers_only(session):
    events = tuple(e for e in session.events if e.kind is EventKind.ANSWER)
    return StudentSession(session.student_id, events, session.session_end_ms)


@pytest.mark.parametrize("make", [_overlapping_spec, _unsorted_spec])
@pytest.mark.parametrize("views", [True, False], ids=["views", "answers-only"])
def test_class_tables_equal_library_definitions(make, views):
    spec = make()
    sessions = _sessions(spec, per_profile=3, seed=515)
    if not views:
        sessions = [_answers_only(s) for s in sessions]
    mode = pick_log_srt_mode(sessions)
    scheme = build_grouping(len(sessions))
    reports = attach_group_indices([compute_student(s, spec, mode) for s in sessions], scheme)
    summary = build_class_summary(reports, spec, scheme, 0.5, "auto")

    responses = [derive_responses(s, spec, mode) for s in sessions]
    sequences = [derive_answer_sequence(s) for s in sessions]
    subjects = {s: QuestionSubset.for_subject(spec, s) for s in spec.subjects()}
    topics = {t: QuestionSubset.for_topic(spec, t) for t in spec.topics()}

    def ranking(subsets, label):
        pairs = {
            element: [
                (traditional_score(r, spec, subset), weighted_score(r, spec, subset))
                for r in responses
            ]
            for element, subset in subsets.items()
        }
        return [
            {"rank": r.rank, label: r.element, "normalized_priority": r.normalized_priority}
            for r in rank_priorities(pairs)
        ]

    assert summary["subject_priorities"] == ranking(subjects, "subject")
    assert summary["topic_priorities"] == ranking(topics, "topic")

    disorder = [
        (subject, *analytics.disorder_summary(sequences, subset))
        for subject, subset in subjects.items()
    ]
    disorder.append(("General", *analytics.disorder_summary(sequences)))
    assert [
        (row["subject"], row["average"], row["percent_positive"]) for row in summary["disorder"]
    ] == disorder

    comparisons = analytics.srt_vs_expected(responses, spec, QuestionSubset.whole(spec))
    assert summary["srt_vs_expected"] == [
        {
            "question_id": c.question_id,
            "mean_srt_s": c.mean_srt_s,
            "expected_time_s": c.expected_time_s,
            "within_expected": c.within_expected,
        }
        for c in comparisons
    ]

    def mean_srt(subset):
        total = sum(student_response_time(r, subset) / len(subset) for r in responses)
        return format(total / len(responses), ".4f")

    lines = [f"{s},{mean_srt(subset)}" for s, subset in subjects.items()]
    lines.append(f"General,{mean_srt(QuestionSubset.whole(spec))}")
    assert subject_srt_csv(reports, spec) == "subject,mean_srt_s\n" + "".join(
        line + "\n" for line in lines
    )


def test_subset_layout_is_built_once_per_spec():
    spec = _overlapping_spec()
    assert spec.subset_layout is spec.subset_layout
    assert spec.subset_layout[0] == ("questionnaire", None, tuple(range(1, 13)))
    assert spec.subset_layout[1] == ("subject", "Algebra", (1, 2, 3, 4))
    assert spec.subset_layout[4][:2] == ("topic", 1)


def test_compute_student_walks_the_answers_once(monkeypatch):
    """No per-subset filter of the answer sequence and no per-question
    ComprehensionInputs: either one raises here."""
    spec = _overlapping_spec()
    sessions = _sessions(spec)
    expected = [compute_student(session, spec, SrtMode.VIEW_INTERVALS) for session in sessions]
    holders = spec.subsets_of_question
    assert holders is spec.subsets_of_question
    assert holders[0] == (0, 1, 4, 6, 7)  # questionnaire, Algebra, topics 1, 3 and 4

    def refuse(*args, **kwargs):
        raise AssertionError("compute_student left the fused kernel")

    monkeypatch.setattr(AnswerSequence, "restricted_to", refuse)
    monkeypatch.setattr(ComprehensionInputs, "__post_init__", refuse)
    again = [compute_student(session, spec, SrtMode.VIEW_INTERVALS) for session in sessions]
    assert again == expected
    assert spec.subsets_of_question is holders


@pytest.mark.parametrize(
    "value, expected",
    [
        ([], "[]\n"),
        ({}, "{}\n"),
        (None, "null\n"),
        (True, "true\n"),
        (False, "false\n"),
        ({"a": [], "b": {}}, '{\n  "a": [],\n  "b": {}\n}\n'),
        ({1: 2, 3: 0.5}, '{\n  "1": 2,\n  "3": 0.5000\n}\n'),
        ({"name": "Zoë ✓", "q": "a\"b"}, '{\n  "name": "Zo\\u00eb \\u2713",\n  "q": "a\\"b"\n}\n'),
        (
            [{"k": [1, None, {"x": False, "y": 0.125}]}],
            '[\n  {\n    "k": [\n      1,\n      null,\n      {\n        "x": false,\n'
            '        "y": 0.1250\n      }\n    ]\n  }\n]\n',
        ),
        ((2.5, "s", True), '[\n  2.5000,\n  "s",\n  true\n]\n'),
        # A tuple of rows of one class: one block.
        (
            (GroupIndices(1, 2, 3, 4), GroupIndices(4, 3, 2, 1)),
            '[\n  {\n    "ts": 1,\n    "ws": 2,\n    "ad": 3,\n    "qucl": 4\n  },\n'
            '  {\n    "ts": 4,\n    "ws": 3,\n    "ad": 2,\n    "qucl": 1\n  }\n]\n',
        ),
        # Rows of two classes, or a row and a non-row: each row alone.
        (
            [
                QuestionRow(2, 3, 2, 4, 1.5, 0.25),
                SubsetRow("topic", "%s", 1.0, 2.0, 0.5, 3.0, 0.0, 0.125, 0.75),
            ],
            '[\n  {\n    "question_id": 2,\n    "markings": 3,\n    "doubt": 2,\n    "weight": 4,\n'
            '    "srt_s": 1.5000,\n    "qcl": 0.2500\n  },\n  {\n    "scope": "topic",\n'
            '    "element": "%s",\n    "ts": 1.0000,\n    "ws": 2.0000,\n    "ad": 0.5000,\n'
            '    "srt_s": 3.0000,\n    "disorder": 0.0000,\n    "qucl": 0.1250,\n'
            '    "priority": 0.7500\n  }\n]\n',
        ),
        (
            [GroupIndices(1, 1, 2, 2), None],
            '[\n  {\n    "ts": 1,\n    "ws": 1,\n    "ad": 2,\n    "qucl": 2\n  },\n  null\n]\n',
        ),
        # Rows two levels deep: a block inside a list inside a dict.
        (
            {"q": [[GroupIndices(5, 6, 7, 8)], []]},
            '{\n  "q": [\n    [\n      {\n        "ts": 5,\n        "ws": 6,\n        "ad": 7,\n'
            '        "qucl": 8\n      }\n    ],\n    []\n  ]\n}\n',
        ),
    ],
)
def test_render_json_literal_output(value, expected):
    assert render_json(value) == expected
    assert render_json(_as_dicts(value)) == expected


def _as_dicts(value):
    """``value`` with each report row replaced by its ``_asdict()`` dict."""
    if isinstance(value, (QuestionRow, SubsetRow, GroupIndices)):
        return dict(value._asdict())
    if isinstance(value, (list, tuple)):
        return [_as_dicts(item) for item in value]
    if isinstance(value, dict):
        return {key: _as_dicts(item) for key, item in value.items()}
    return value


@pytest.mark.parametrize("elements", [(1, 1.0, True), (True, 1.0, 1)])
def test_equal_values_of_different_types_stay_apart(elements):
    # 1 == 1.0 == True: a memo of cell text keyed by the value alone writes
    # the first one's text for all three.
    rows = tuple(SubsetRow("topic", e, 1.0, 2.0, 0.5, 3.0, 0.0, 0.125, 0.75) for e in elements)
    assert render_json(rows) == render_json([dict(row._asdict()) for row in rows])

    report = StudentMetricsReport("s1", (), rows, QuadrantLabel.Q1, GroupIndices(1, 2, 3, 4))
    written = list(csv.reader(io.StringIO(students_csv([report]))))[1:]
    assert [line[2] for line in written] == _csv_writer_text([e] for e in elements).splitlines()
    # The plot-data writer's own rule: floats are written as decimals.
    cells = [[format(e, ".4f") if isinstance(e, float) else e, "x"] for e in elements]
    expected = _csv_writer_text([("a", "b"), *cells])
    assert _csv_text(("a", "b"), [[e, "x"] for e in elements]) == expected


def test_flat_csvs_write_no_line_for_a_report_without_rows():
    report = StudentMetricsReport("s1", (), (), QuadrantLabel.Q1, GroupIndices(1, 2, 3, 4))
    assert questions_csv([report]) == questions_csv([])
    assert students_csv([report]) == students_csv([])


def _csv_writer_text(rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def test_render_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        render_json({"a": object()})
