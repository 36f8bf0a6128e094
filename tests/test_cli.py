import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

from edumetrics import serialize_questionnaire
from edumetrics.cli import build_parser
from helpers import make_question, make_spec

EVENT_HEADER = "student_id,question_id,event,option_id,timestamp_ms"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "edumetrics", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def write_spec(tmp_path, n=6, subjects=("Maths", "History")):
    questions = [
        make_question(i + 1, subject=subjects[i % len(subjects)], topics=(i % 3 + 1,))
        for i in range(n)
    ]
    spec = make_spec(questions)
    path = tmp_path / "spec.json"
    path.write_text(serialize_questionnaire(spec), encoding="utf-8")
    return path


def simulate_events(tmp_path, spec_path, profile="assured", count=5, seed=7):
    events = tmp_path / f"{profile}-{count}.csv"
    result = run_cli(
        "simulate",
        "--spec", str(spec_path),
        "--profile", profile,
        "--count", str(count),
        "--seed", str(seed),
        "--out", str(events),
    )
    assert result.returncode == 0, result.stderr
    return events


def test_simulate_is_deterministic(tmp_path):
    spec_path = write_spec(tmp_path)
    first = simulate_events(tmp_path, spec_path, count=3).read_bytes()
    second_path = tmp_path / "second.csv"
    result = run_cli(
        "simulate", "--spec", str(spec_path), "--profile", "assured",
        "--count", "3", "--seed", "7", "--out", str(second_path),
    )
    assert result.returncode == 0
    assert first == second_path.read_bytes()


def test_simulate_zero_students_writes_header_only(tmp_path):
    spec_path = write_spec(tmp_path)
    events = simulate_events(tmp_path, spec_path, count=0)
    assert events.read_text(encoding="utf-8") == EVENT_HEADER + "\n"


def test_simulate_unknown_profile_exits_one(tmp_path):
    spec_path = write_spec(tmp_path)
    result = run_cli(
        "simulate", "--spec", str(spec_path), "--profile", "sleepy",
        "--count", "1", "--seed", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert result.returncode == 1
    assert "profile" in result.stderr


def test_compute_end_to_end(tmp_path):
    spec_path = write_spec(tmp_path)
    events = simulate_events(tmp_path, spec_path, count=5)
    out_dir = tmp_path / "out"
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(events),
        "--out", str(out_dir),
    )
    assert result.returncode == 0, result.stderr

    students = json.loads((out_dir / "students.json").read_text(encoding="utf-8"))
    assert len(students) == 5
    for student in students:
        assert len(student["questions"]) == 6
        scopes = [(row["scope"], row["element"]) for row in student["subsets"]]
        assert scopes[0] == ("questionnaire", None)
        assert ("subject", "Maths") in scopes
        assert ("topic", 1) in scopes

    class_report = json.loads((out_dir / "class.json").read_text(encoding="utf-8"))
    assert class_report["student_count"] == 5
    roster = class_report["quadrants"]
    assert sum(len(ids) for ids in roster.values()) == 5
    # Assured students are confident and comprehending.
    assert len(roster["Q1"]) == 5

    plotdata = out_dir / "plotdata"
    for name in ("groups_histogram.csv", "ad_vs_qucl.csv", "subject_srt.csv"):
        assert (plotdata / name).exists()

    histogram = (plotdata / "groups_histogram.csv").read_text().strip().split("\n")[1:]
    counts_by_metric = {}
    for line in histogram:
        metric, _, count = line.split(",")
        counts_by_metric[metric] = counts_by_metric.get(metric, 0) + int(count)
    assert counts_by_metric == {"ts": 5, "ws": 5, "ad": 5, "qucl": 5}

    srt_rows = (plotdata / "subject_srt.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in srt_rows] == ["Maths", "History", "General"]


def test_compute_is_byte_deterministic(tmp_path):
    spec_path = write_spec(tmp_path)
    events = simulate_events(tmp_path, spec_path, profile="self-corrector", count=4)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out_dir in (out_a, out_b):
        result = run_cli(
            "compute", "--spec", str(spec_path), "--events", str(events),
            "--out", str(out_dir),
        )
        assert result.returncode == 0, result.stderr
    for name in (
        "students.json",
        "class.json",
        "plotdata/groups_histogram.csv",
        "plotdata/ad_vs_qucl.csv",
        "plotdata/subject_srt.csv",
    ):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_compute_empty_events(tmp_path):
    spec_path = write_spec(tmp_path)
    events = tmp_path / "empty.csv"
    events.write_text(EVENT_HEADER + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(events),
        "--out", str(out_dir),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads((out_dir / "students.json").read_text()) == []
    class_report = json.loads((out_dir / "class.json").read_text())
    assert class_report["no_students"] is True
    assert class_report["student_count"] == 0


def test_compute_mismatched_events_exit_one(tmp_path):
    spec_path = write_spec(tmp_path, n=2)
    events = tmp_path / "bad.csv"
    events.write_text(EVENT_HEADER + "\ns1,99,answer,a,1000\n", encoding="utf-8")
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(events),
        "--out", str(tmp_path / "out"),
    )
    assert result.returncode == 1
    assert "question_id" in result.stderr
    assert "bad.csv" in result.stderr


def test_compute_bad_spec_exit_one(tmp_path):
    spec_path = tmp_path / "broken.json"
    spec_path.write_text("{not json", encoding="utf-8")
    events = tmp_path / "e.csv"
    events.write_text(EVENT_HEADER + "\n", encoding="utf-8")
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(events),
        "--out", str(tmp_path / "out"),
    )
    assert result.returncode == 1
    assert "broken.json" in result.stderr


def test_compute_missing_input_exit_two(tmp_path):
    spec_path = write_spec(tmp_path)
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "out"),
    )
    assert result.returncode == 2


def test_compute_csv_format_writes_flat_files(tmp_path):
    spec_path = write_spec(tmp_path)
    events = simulate_events(tmp_path, spec_path, count=2)
    out_dir = tmp_path / "out"
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(events),
        "--out", str(out_dir), "--format", "csv",
    )
    assert result.returncode == 0, result.stderr
    students_csv = (out_dir / "students.csv").read_text(encoding="utf-8")
    assert students_csv.startswith("student_id,scope,element,ts,ws,ad,")
    questions_csv = (out_dir / "questions.csv").read_text(encoding="utf-8")
    assert len(questions_csv.strip().split("\n")) == 1 + 2 * 6


def test_compute_forced_srt_mode_changes_attribution(tmp_path):
    spec_path = write_spec(tmp_path, n=2)
    events = tmp_path / "events.csv"
    events.write_text(
        EVENT_HEADER + "\n"
        "s1,1,answer,a,10000\n"
        "s1,2,answer,a,70000\n",
        encoding="utf-8",
    )
    srt_by_mode = {}
    for mode in ("view", "answer"):
        out_dir = tmp_path / mode
        result = run_cli(
            "compute", "--spec", str(spec_path), "--events", str(events),
            "--srt-mode", mode, "--out", str(out_dir),
        )
        assert result.returncode == 0, result.stderr
        students = json.loads((out_dir / "students.json").read_text())
        srt_by_mode[mode] = [q["srt_s"] for q in students[0]["questions"]]
    # View intervals charge the gap to the question current at its start.
    assert srt_by_mode["view"] == [60.0, 0.0]
    # Answer intervals charge the gap to the later answer; the first gets 0.
    assert srt_by_mode["answer"] == [0.0, 60.0]


def test_compute_accepts_relaxed_option_count(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "questionnaire_id": "tiny",
                "max_total_time_s": 600,
                "questions": [
                    {
                        "question_id": 1,
                        "subject": "Maths",
                        "topic_ids": [],
                        "qdi": 3,
                        "cdi": 3,
                        "tdi": 3,
                        "expected_time_s": 60,
                        "options": [
                            {"option_id": "a", "ws_weight": 4},
                            {"option_id": "b", "ws_weight": 0},
                        ],
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    events = tmp_path / "events.csv"
    events.write_text(EVENT_HEADER + "\ns1,1,answer,a,1000\n", encoding="utf-8")
    strict = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(events),
        "--out", str(tmp_path / "strict"),
    )
    assert strict.returncode == 1
    relaxed = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(events),
        "--out", str(tmp_path / "relaxed"), "--allow-any-option-count",
    )
    assert relaxed.returncode == 0, relaxed.stderr


def test_rounding_is_fixed_to_four_digits(tmp_path):
    spec_path = write_spec(tmp_path)
    events = simulate_events(tmp_path, spec_path, profile="guesser", count=3)
    out_dir = tmp_path / "out"
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(events),
        "--out", str(out_dir),
    )
    assert result.returncode == 0
    text = (out_dir / "students.json").read_text(encoding="utf-8")
    for line in text.splitlines():
        if '"srt_s":' in line:
            value = line.split(":")[1].strip().rstrip(",")
            assert len(value.split(".")[1]) == 4


def test_compute_auto_srt_mode_resolves_once_per_log(tmp_path):
    spec_path = write_spec(tmp_path, n=2)
    events = tmp_path / "events.csv"
    events.write_text(
        EVENT_HEADER + "\n"
        "s1,1,view,,0\n"
        "s1,1,answer,a,10000\n"
        "s1,2,view,,10000\n"
        "s1,2,answer,a,70000\n"
        "s2,1,answer,a,10000\n"
        "s2,2,answer,a,70000\n",
        encoding="utf-8",
    )
    srt_by_mode = {}
    for mode in ("auto", "view"):
        out_dir = tmp_path / mode
        result = run_cli(
            "compute", "--spec", str(spec_path), "--events", str(events),
            "--srt-mode", mode, "--out", str(out_dir),
        )
        assert result.returncode == 0, result.stderr
        students = json.loads((out_dir / "students.json").read_text())
        srt_by_mode[mode] = {
            s["student_id"]: [q["srt_s"] for q in s["questions"]] for s in students
        }
    # The log has view rows, so auto charges every student by view
    # intervals, s2 included, whose own rows are answers only.
    assert srt_by_mode["auto"] == srt_by_mode["view"]
    assert srt_by_mode["auto"]["s1"] == [10.0, 60.0]
    assert srt_by_mode["auto"]["s2"] == [60.0, 0.0]
    class_report = json.loads((tmp_path / "auto" / "class.json").read_text())
    assert class_report["srt_mode"] == "auto"


def test_readme_lists_exactly_the_compute_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("`compute` options:", 1)[1].split("\n\nOutputs under", 1)[0]
    documented = set(re.findall(r"^\* `(--[a-z-]+)", section, flags=re.MULTILINE))
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    compute = subparsers.choices["compute"]
    options = {
        option
        for action in compute._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == options
