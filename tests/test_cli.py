import argparse
import codecs
import csv
import gc
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from edumetrics import (
    cli,
    event_log_csv,
    profile_from_name,
    reporting,
    serialize_questionnaire,
    simulate_class,
)
from edumetrics.cli import build_parser, main
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


def test_simulate_output_bytes_match_recorded_digest(tmp_path):
    # Recorded from the writer that went through csv.writer.
    spec_path = write_spec(tmp_path, n=9)
    events = simulate_events(tmp_path, spec_path, profile="disordered", count=7, seed=19)
    assert hashlib.sha256(events.read_bytes()).hexdigest() == (
        "bb5a2434cecfe378b69a46eb2b6d73eb6bf9607ce8d0cbd2982c4c5c49960399"
    )


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


EMPTY_CLASS_REPORTS = {
    "students.json": "[]\n",
    "class.json": """{
  "student_count": 0,
  "no_students": true,
  "srt_mode": "auto",
  "threshold": 0.5000,
  "notes": {
    "general_rows": "aggregated over every question, not averaged over subjects"
  },
  "grouping": null,
  "approval_splits": [],
  "quadrants": {
    "Q1": [],
    "Q2": [],
    "Q3": [],
    "Q4": []
  },
  "subject_priorities": [],
  "topic_priorities": [],
  "srt_vs_expected": [],
  "disorder": []
}
""",
    "plotdata/groups_histogram.csv": "metric,group,count\n",
    "plotdata/ad_vs_qucl.csv": "student_id,ad,qucl,quadrant\n",
    "plotdata/subject_srt.csv": "subject,mean_srt_s\n",
    "students.csv": "student_id,scope,element,ts,ws,ad,srt_s,disorder,qucl,priority,"
    "quadrant,group_ts,group_ws,group_ad,group_qucl\n",
    "questions.csv": "student_id,question_id,markings,doubt,weight,srt_s,qcl\n",
}


@pytest.mark.parametrize("log", [EVENT_HEADER + "\n", ""], ids=["header-only", "empty-file"])
def test_compute_empty_class_report_bytes(tmp_path, log):
    spec_path = write_spec(tmp_path)
    events = tmp_path / "events.csv"
    events.write_text(log, encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(
        [
            "compute", "--spec", str(spec_path), "--events", str(events),
            "--out", str(out_dir), "--format", "csv",
        ]
    )
    assert code == 0
    written = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file())
    assert written == sorted(EMPTY_CLASS_REPORTS)
    for name, text in EMPTY_CLASS_REPORTS.items():
        assert (out_dir / name).read_bytes() == text.encode("utf-8"), name


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


def test_long_error_line_reaches_a_pipe_whole(tmp_path):
    # The command ends in os._exit, so stderr must be flushed before it.
    spec_path = write_spec(tmp_path)
    events = tmp_path.joinpath(*["x" * 250] * 12, "absent.csv")
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(events),
        "--out", str(tmp_path / "out"),
    )
    assert result.returncode == 2
    assert result.stderr == f"error: [Errno 2] No such file or directory: '{events}'\n"


def test_console_entry_flushes_both_streams_and_exits_with_mains_code():
    script = (
        "import sys\n"
        "import edumetrics.cli as cli\n"
        "cli.main = lambda: print('out', end='') or print('err', end='', file=sys.stderr) or 3\n"
        "cli.console_entry()\n"
    )
    # Buffered streams, as they are by default, so only a flush delivers the text.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (3, "out", "err")


def test_usage_error_leaves_through_argparse():
    result = run_cli("compute", "--spec", "s.json", "--events", "e.csv", "--threshold", "abc")
    assert result.returncode == 2
    assert result.stderr.startswith("usage: edumetrics compute")
    assert result.stderr.endswith("argument --threshold: invalid float value: 'abc'\n")


# Modules that edumetrics compute has no use for.
UNUSED_BY_COMPUTE = ("logging", "edumetrics.simulator", "edumetrics.literature_metrics")


@pytest.mark.parametrize(
    "command, loaded", [("compute", []), ("simulate", ["edumetrics.simulator"])]
)
def test_main_imports_only_what_its_command_runs(tmp_path, command, loaded):
    spec_path = write_spec(tmp_path)
    if command == "compute":
        events = simulate_events(tmp_path, spec_path, count=2)
        argv = [command, "--spec", str(spec_path), "--events", str(events),
                "--out", str(tmp_path / "out"), "--format", "csv"]
    else:
        argv = [command, "--spec", str(spec_path), "--profile", "guesser",
                "--count", "2", "--out", str(tmp_path / "events.csv")]
    script = (
        "import sys\n"
        "from edumetrics.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(*[name for name in {UNUSED_BY_COMPUTE!r} if name in sys.modules])\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == loaded


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


def test_compute_memory_is_bounded_by_students_json_and_the_events(tmp_path, monkeypatch):
    # North star: memory is bounded by what the run needs. On 100 simulated
    # self-correctors the traced peak of a whole run is the parse's: the log
    # text and the events, about 160 B an event, with the compute and the
    # students.json render just under it. The bound holds a margin of about a
    # quarter over that peak. Second bound: a render leaves behind no more than
    # an eighth of students.json over what the class summary holds. Each level
    # after a write leaves out the written text, which the caller drops next.
    levels = []
    summarize, write = cli.build_class_summary, cli._write_text

    def traced_summary(*args):
        summary = summarize(*args)
        levels.append(tracemalloc.get_traced_memory()[0])
        return summary

    def traced_write(path, data):
        write(path, data)
        levels.append(tracemalloc.get_traced_memory()[0] - sys.getsizeof(data))

    monkeypatch.setattr(cli, "build_class_summary", traced_summary)
    monkeypatch.setattr(cli, "_write_text", traced_write)
    spec = make_spec(n=40)
    sessions = simulate_class(profile_from_name("self-corrector", 5), spec, 100)
    events = sum(len(session.events) for session in sessions)
    spec_path, events_path = tmp_path / "spec.json", tmp_path / "events.csv"
    spec_path.write_text(serialize_questionnaire(spec), encoding="utf-8")
    events_path.write_text(event_log_csv(sessions), encoding="utf-8")
    del sessions
    argv = ["compute", "--spec", str(spec_path), "--events", str(events_path),
            "--out", str(tmp_path / "out"), "--format", "csv"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    students_json = (tmp_path / "out" / "students.json").stat().st_size
    assert peak < students_json // 2 + 200 * events
    after_summary, *after_writes = levels
    assert len(after_writes) == 7
    assert max(after_writes) < after_summary + students_json // 8


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


def test_readme_names_the_flat_csv_columns():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for header in (reporting.students_csv([]), reporting.questions_csv([])):
        assert f"columns `{header.strip()}`" in readme


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    write_spec(tmp_path, n=2)
    (tmp_path / "events.csv").write_text(
        EVENT_HEADER + "\ns1,1,answer,a,1000\ns1,2,answer,b,2000\ns2,2,answer,a,500\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [words[0] for words in printed] == ["s1", "s2"]
    assert [len(words) for words in printed] == [3, 3]


@pytest.mark.parametrize(
    "row, where",
    [("s1,1,answer,a,1" + "0" * 400, "line=3"), ("s1,1,answer,a," + "1" * 131_073, "(line 3)")],
    ids=["huge-timestamp", "long-field"],
)
def test_compute_rejects_unreadable_event_row_with_its_line(tmp_path, row, where):
    spec_path = write_spec(tmp_path, n=2)
    events = tmp_path / "events.csv"
    events.write_text(f"{EVENT_HEADER}\ns1,1,view,,0\n{row}\n", encoding="utf-8")
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(events),
        "--out", str(tmp_path / "out"),
    )
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {events}: ")
    assert where in result.stderr
    assert "Traceback" not in result.stderr


def assert_one_error_line(capsys, argv, *fragments):
    """main exits 1 after printing one ``error:`` line that holds each fragment."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err, err


def written_files(root):
    return [p for p in root.rglob("*") if p.is_file()] if root.exists() else []


def report_bytes(out_dir):
    """Each file under ``out_dir``, by its path relative to it, as bytes."""
    return {p.relative_to(out_dir).as_posix(): p.read_bytes() for p in written_files(out_dir)}


def test_compute_spec_not_utf8_names_file_and_line(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(b'{\n  "questionnaire_id": "\xff"\n}\n')
    events = tmp_path / "events.csv"
    events.write_text(EVENT_HEADER + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert_one_error_line(
        capsys,
        ["compute", "--spec", str(spec_path), "--events", str(events), "--out", str(out_dir)],
        f"error: {spec_path}: ", "UTF-8", "(line 2)",
    )
    assert written_files(out_dir) == []


def test_simulate_spec_not_utf8_names_file_and_line(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(b"\xff{}")
    out = tmp_path / "events.csv"
    assert_one_error_line(
        capsys,
        [
            "simulate", "--spec", str(spec_path), "--profile", "assured",
            "--count", "1", "--out", str(out),
        ],
        f"error: {spec_path}: ", "UTF-8", "(line 1)",
    )
    assert not out.exists()


def test_compute_events_not_utf8_counts_crlf_lines(tmp_path, capsys):
    spec_path = write_spec(tmp_path, n=2)
    events = tmp_path / "events.csv"
    events.write_bytes(
        EVENT_HEADER.encode() + b"\r\ns1,1,view,,0\r\ns1,1,answer,\xff,1000\r\n"
    )
    out_dir = tmp_path / "out"
    assert_one_error_line(
        capsys,
        ["compute", "--spec", str(spec_path), "--events", str(events), "--out", str(out_dir)],
        f"error: {events}: ", "UTF-8", "(line 3)",
    )
    assert written_files(out_dir) == []


def test_compute_reads_past_a_utf8_byte_order_mark(tmp_path):
    """Excel's "CSV UTF-8" export starts the file with a BOM: the reports
    equal those of the same files without it."""
    spec_path = write_spec(tmp_path, subjects=("Zoë", "Maths"))
    events = simulate_events(tmp_path, spec_path, profile="self-corrector", count=3)
    spec_bom, events_bom = tmp_path / "bom-spec.json", tmp_path / "bom-events.csv"
    spec_bom.write_bytes(codecs.BOM_UTF8 + spec_path.read_bytes())
    events_bom.write_bytes(codecs.BOM_UTF8 + events.read_bytes())
    reports = []
    for spec, log, out_dir in ((spec_path, events, tmp_path / "plain"),
                               (spec_bom, events_bom, tmp_path / "bom")):
        argv = ["compute", "--spec", str(spec), "--events", str(log), "--out", str(out_dir)]
        assert main([*argv, "--format", "csv"]) == 0
        reports.append(report_bytes(out_dir))
    assert len(reports[0]) == 7 and reports[0] == reports[1]


def test_compute_reads_crlf_and_cr_only_logs_as_lf(tmp_path):
    """CRLF and lone-CR copies of a log give the LF log's report bytes, through
    the file read and the parse. 40 self-correctors write about 29 000
    characters, more than one parse slice holds."""
    spec_path = write_spec(tmp_path)
    events = simulate_events(tmp_path, spec_path, profile="self-corrector", count=40)
    text = events.read_bytes()
    reports = {}
    for name, ending in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
        log = tmp_path / f"{name}.csv"
        log.write_bytes(text.replace(b"\n", ending))
        out_dir = tmp_path / f"out-{name}"
        argv = ["compute", "--spec", str(spec_path), "--events", str(log), "--out", str(out_dir)]
        assert main([*argv, "--format", "csv"]) == 0
        reports[name] = report_bytes(out_dir)
    assert len(reports["lf"]) == 7
    assert reports["crlf"] == reports["lf"] and reports["cr"] == reports["lf"]


def test_compute_report_bytes_do_not_depend_on_the_locale(tmp_path):
    """A non-ASCII subject computed under the C locale without UTF-8 mode, where
    an open() that falls back to the locale's encoding is an error, gives the
    report bytes of a UTF-8 run."""
    spec_path = write_spec(tmp_path, subjects=("\u00c1lgebra \u2713", "Maths"))
    events = simulate_events(tmp_path, spec_path, profile="self-corrector", count=4)
    ascii_locale = {
        "PYTHONUTF8": "0", "LC_ALL": "C",  # -X warn_default_encoding -W error::EncodingWarning
        "PYTHONWARNDEFAULTENCODING": "1", "PYTHONWARNINGS": "error::EncodingWarning",
    }
    reports = {}
    for name, env in (("utf8", {"PYTHONUTF8": "1"}), ("ascii", ascii_locale)):
        out_dir = tmp_path / f"out-{name}"
        result = run_cli(
            "compute", "--spec", str(spec_path), "--events", str(events),
            "--out", str(out_dir), "--format", "csv", env={**os.environ, **env},
        )
        assert result.returncode == 0, result.stderr
        reports[name] = report_bytes(out_dir)
    assert len(reports["utf8"]) == 7 and reports["ascii"] == reports["utf8"]
    assert "\u00c1lgebra \u2713".encode() in reports["utf8"]["students.csv"]


def test_compute_json_format_writes_the_csv_runs_files(tmp_path):
    """--format json writes the five files of a --format csv run, byte for byte,
    and not the two flat CSVs."""
    spec_path = write_spec(tmp_path)
    events = simulate_events(tmp_path, spec_path, profile="self-corrector", count=4)
    reports = {}
    for fmt in ("csv", "json"):
        out_dir = tmp_path / f"out-{fmt}"
        argv = ["compute", "--spec", str(spec_path), "--events", str(events), "--out", str(out_dir)]
        assert main([*argv, "--format", fmt]) == 0
        reports[fmt] = report_bytes(out_dir)
    flat = {name: reports["csv"].pop(name) for name in ("students.csv", "questions.csv")}
    assert all(flat.values()) and len(reports["json"]) == 5
    assert reports["json"] == reports["csv"]


@pytest.fixture(scope="module")
def plain_run(tmp_path_factory):
    """The spec, a log of 20 self-correctors (543 lines) and the report bytes of
    its plain ``--format csv`` run, made once for the module."""
    tmp_path = tmp_path_factory.mktemp("plain")
    spec_path = write_spec(tmp_path)
    events = simulate_events(tmp_path, spec_path, profile="self-corrector", count=20, seed=3)
    out_dir = tmp_path / "out"
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(events), "--out", str(out_dir),
        "--format", "csv",
    )
    assert result.returncode == 0, result.stderr
    reports = report_bytes(out_dir)
    assert len(reports) == 7 and all(reports.values())
    return spec_path, events.read_text(encoding="utf-8"), reports


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def quote_every_field(text):
    """Every field quoted: the parser's csv reader reads this copy."""
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(csv_rows(text))
    return out.getvalue()


def zero_pad_question_ids(text):
    """Every question id written as 01: each row misses the parser's table of
    spellings, and a second lookup resolves it."""
    header, *rows = csv_rows(text)
    padded = [[s, "0" + q if q else q, *rest] for s, q, *rest in rows]
    return "".join(",".join(row) + "\n" for row in (header, *padded))


def append_end_rows(text):
    """An end row at each student's last timestamp, all after the last row: the
    parser's column check takes them."""
    last = {}
    for student_id, _, _, _, timestamp_ms in csv_rows(text)[1:]:
        last[student_id] = max(last.get(student_id, 0), int(timestamp_ms))
    return text + "".join(f"{s},,end,,{t}\n" for s, t in last.items())


def blank_line_after_every_row(text):
    """The parser skips blank lines, as csv does."""
    return text.replace("\n", "\n\n")


@pytest.mark.parametrize(
    "rewrite",
    [quote_every_field, zero_pad_question_ids, append_end_rows, blank_line_after_every_row],
    ids=lambda rewrite: rewrite.__name__,
)
def test_compute_reads_a_rewritten_log_to_the_plain_runs_bytes(plain_run, tmp_path, rewrite):
    spec_path, text, plain = plain_run
    log = tmp_path / "events.csv"
    log.write_bytes(rewrite(text).encode())
    out_dir = tmp_path / "out"
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(log), "--out", str(out_dir),
        "--format", "csv",
    )
    assert result.returncode == 0, result.stderr
    assert report_bytes(out_dir) == plain


def with_faulty_row(text, variant):
    """The log with ``x9,1,view,,-1`` as line 301, with LF, CRLF or CR line
    ends, or LF with every field quoted."""
    lines = text.split("\n")
    lines.insert(300, "x9,1,view,,-1")
    lf = "\n".join(lines)
    ends = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}
    return quote_every_field(lf) if variant == "quoted" else lf.replace("\n", ends[variant])


@pytest.mark.parametrize("variant", ["lf", "crlf", "cr", "quoted"])
def test_compute_names_line_301_of_a_faulty_log_and_writes_nothing(plain_run, tmp_path, variant):
    spec_path, text, _ = plain_run
    log = tmp_path / f"bad-{variant}.csv"
    log.write_bytes(with_faulty_row(text, variant).encode())
    out_dir = tmp_path / "out"
    result = run_cli(
        "compute", "--spec", str(spec_path), "--events", str(log), "--out", str(out_dir),
        "--format", "csv",
    )
    assert result.returncode == 1
    assert result.stderr == (
        f"error: {log}: timestamp_ms must be a non-negative integer "
        "(field=timestamp_ms, line=301)\n"
    )
    assert not out_dir.exists()


def test_compute_events_with_bom_not_utf8_names_the_line(tmp_path, capsys):
    spec_path = write_spec(tmp_path, n=2)
    events = tmp_path / "events.csv"
    events.write_bytes(
        codecs.BOM_UTF8 + EVENT_HEADER.encode() + b"\ns1,1,view,,0\ns1,1,answer,\xff,1000\n"
    )
    out_dir = tmp_path / "out"
    assert_one_error_line(
        capsys,
        ["compute", "--spec", str(spec_path), "--events", str(events), "--out", str(out_dir)],
        f"error: {events}: ", "UTF-8", "(line 3)",
    )


@pytest.mark.parametrize(
    "value, message",
    [("1.5", "--threshold must lie in [0, 1], got 1.5"), ("nan", "--threshold must lie in [0, 1], got nan")],
)
def test_compute_threshold_out_of_range_exits_one(tmp_path, capsys, value, message):
    spec_path = write_spec(tmp_path)
    events = tmp_path / "events.csv"
    events.write_text(EVENT_HEADER + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert_one_error_line(
        capsys,
        [
            "compute", "--spec", str(spec_path), "--events", str(events),
            "--out", str(out_dir), "--threshold", value,
        ],
        f"error: {message}\n",
    )
    assert written_files(out_dir) == []


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "--seed must be an integer in [0, 18446744073709551615], got -1"),
        ("--seed", str(2**64),
         "--seed must be an integer in [0, 18446744073709551615], got 18446744073709551616"),
        ("--count", "-1", "--count must be an integer in [0, inf), got -1"),
    ],
)
def test_simulate_argument_out_of_range_exits_one(tmp_path, capsys, flag, value, message):
    spec_path = write_spec(tmp_path)
    out = tmp_path / "events.csv"
    argv = ["simulate", "--spec", str(spec_path), "--profile", "assured", "--out", str(out)]
    argv += ["--count", "1", "--seed", "0", flag, value]
    assert_one_error_line(capsys, argv, f"error: {message}\n")
    assert not out.exists()


def test_compute_reads_the_spec_before_the_events(tmp_path, capsys):
    spec_path = tmp_path / "broken.json"
    spec_path.write_text("{not json", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert_one_error_line(
        capsys,
        [
            "compute", "--spec", str(spec_path), "--events", str(tmp_path / "absent.csv"),
            "--out", str(out_dir),
        ],
        f"error: {spec_path}: ",
    )
    assert written_files(out_dir) == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_get_the_umask_mode(tmp_path, umask):
    spec_path = write_spec(tmp_path)
    events, out_dir = tmp_path / "events.csv", tmp_path / "out"
    previous = os.umask(umask)
    try:
        simulate = ["simulate", "--spec", str(spec_path), "--profile", "guesser"]
        assert main([*simulate, "--count", "3", "--out", str(events)]) == 0
        compute = ["compute", "--spec", str(spec_path), "--events", str(events)]
        assert main([*compute, "--out", str(out_dir), "--format", "csv"]) == 0
    finally:
        os.umask(previous)
    files = [events, *written_files(out_dir)]
    assert len(files) == 1 + 7
    assert {path.name: stat.S_IMODE(path.stat().st_mode) for path in files} == {
        path.name: 0o666 & ~umask for path in files
    }


def test_compute_failed_write_exits_two_and_leaves_no_temp_file(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    events = simulate_events(tmp_path, spec_path, count=2)
    out_dir = tmp_path / "out"
    (out_dir / "students.json").mkdir(parents=True)
    argv = ["compute", "--spec", str(spec_path), "--events", str(events), "--out", str(out_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(out_dir.rglob("*.tmp")) == []


def test_json_rerun_deletes_the_flat_csvs_of_an_earlier_csv_run(tmp_path):
    spec_path = write_spec(tmp_path)
    events = simulate_events(tmp_path, spec_path, count=3)
    one_student = tmp_path / "one.csv"
    one_student.write_text(f"{EVENT_HEADER}\ns1,1,answer,a,0\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    compute = ["compute", "--spec", str(spec_path), "--out", str(out_dir)]
    assert main([*compute, "--events", str(events), "--format", "csv"]) == 0
    assert main([*compute, "--events", str(one_student), "--format", "json"]) == 0
    assert not (out_dir / "students.csv").exists()
    assert not (out_dir / "questions.csv").exists()
    assert json.loads((out_dir / "class.json").read_text(encoding="utf-8"))["student_count"] == 1


def test_failed_json_rerun_keeps_the_flat_csvs(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    events = simulate_events(tmp_path, spec_path, count=3)
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{EVENT_HEADER}\ns1,1,answer,z,0\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    compute = ["compute", "--spec", str(spec_path), "--out", str(out_dir)]
    assert main([*compute, "--events", str(events), "--format", "csv"]) == 0
    before = {path: path.read_bytes() for path in written_files(out_dir)}
    assert_one_error_line(capsys, [*compute, "--events", str(bad)], "unknown option_id", "line=2")
    assert {path: path.read_bytes() for path in written_files(out_dir)} == before


@pytest.fixture
def restore_collector():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case, code", [("ok", 0), ("bad-spec", 1), ("missing-events", 2)])
def test_compute_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, capsys, restore_collector, enabled, case, code
):
    spec_path = write_spec(tmp_path, n=2)
    events = tmp_path / "events.csv"
    events.write_text(EVENT_HEADER + "\ns1,1,answer,a,1000\n", encoding="utf-8")
    if case == "bad-spec":
        spec_path.write_text("{not json", encoding="utf-8")
    elif case == "missing-events":
        events.unlink()
    seen = []
    summary = cli.build_class_summary
    monkeypatch.setattr(
        cli, "build_class_summary", lambda *args: seen.append(gc.isenabled()) or summary(*args)
    )
    (gc.enable if enabled else gc.disable)()
    argv = ["compute", "--spec", str(spec_path), "--events", str(events), "--out", str(tmp_path)]
    assert main(argv) == code
    assert gc.isenabled() is enabled
    assert seen == ([False] if code == 0 else [])
