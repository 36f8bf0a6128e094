import hashlib

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
from edumetrics.reporting import (
    attach_group_indices,
    build_class_summary,
    compute_student,
    render_json,
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


def report_digests(tmp_path):
    spec_path, events_path = _write_inputs(tmp_path)
    out_dir = tmp_path / "out"
    code = main(
        [
            "compute", "--spec", str(spec_path), "--events", str(events_path),
            "--out", str(out_dir), "--format", "csv",
        ]
    )
    assert code == 0
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in REPORT_DIGESTS
    }


def test_report_bytes_match_recorded_digests(tmp_path):
    assert report_digests(tmp_path) == REPORT_DIGESTS


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


def test_compute_student_rows_equal_metric_definitions():
    spec = _overlapping_spec()
    sessions = _sessions(spec, per_profile=4, seed=77)
    for session in sessions:
        report = compute_student(session, spec)
        responses = derive_responses(session, spec)
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
    target = pick(compute_student(_sessions(spec, per_profile=1)[0], spec))
    with pytest.raises(AttributeError):
        setattr(target, field, getattr(target, field))


def test_group_indices_are_immutable():
    spec = _overlapping_spec()
    sessions = _sessions(spec, per_profile=1)
    reports = attach_group_indices([compute_student(s, spec) for s in sessions], build_grouping(4))
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
    expected = [compute_student(session, spec) for session in sessions]
    holders = spec.subsets_of_question
    assert holders is spec.subsets_of_question
    assert holders[0] == (0, 1, 4, 6, 7)  # questionnaire, Algebra, topics 1, 3 and 4

    def refuse(*args, **kwargs):
        raise AssertionError("compute_student left the fused kernel")

    monkeypatch.setattr(AnswerSequence, "restricted_to", refuse)
    monkeypatch.setattr(ComprehensionInputs, "__post_init__", refuse)
    assert [compute_student(session, spec) for session in sessions] == expected
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
    ],
)
def test_render_json_literal_output(value, expected):
    assert render_json(value) == expected


def test_render_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        render_json({"a": object()})
