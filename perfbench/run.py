#!/usr/bin/env python3
"""Seeded benchmark for ``edumetrics compute``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 35 --trace 0

It writes the workload's spec and an event log simulated from ``--seed``
under ``perfbench/_work/``, times ``edumetrics compute`` on a header-only
log (set-up), then runs ``edumetrics compute`` serially, one child process
at a time, in whole rounds until ``--seconds`` have passed since the
set-up began (at least three rounds). Every compute run is one
operation: the child must exit 0 and its reports must pass
``checker.check_reports`` and match the first run's sha256 digests.

The end-to-end times are scaled to the host's speed: just before each
timed child, ``reference.py`` does a fixed amount of work in a fresh
interpreter, and each child's wall time counts as
``wall / reference wall * REFERENCE_S``. With ``--trace 1`` each round
runs ``traced.py`` in a fresh interpreter after the plain child instead,
and the per-layer metrics come from its spans, unscaled. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = BENCH / "_work"

# The package under test is the checkout's own src/, never an installed copy.
if not (SRC / "edumetrics" / "__init__.py").is_file():
    sys.exit(f"error: no edumetrics package under {SRC}")
sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (imports edumetrics from SRC)

SETUP_REPEATS = 11
MIN_ROUNDS = 3
# Wall time of reference.py on the machine of the README's figures, at
# its median speed: scaled times read as seconds on that machine.
REFERENCE_S = 0.40


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("EDUMETRICS_JOBS", None)  # serial runs only
    return env


def run_child(argv: list[str]) -> tuple[float, float, int, str]:
    """Run one child to its exit: (wall s, its own max RSS MB, exit code, stderr)."""
    stderr_path = WORK / "stderr.txt"
    with stderr_path.open("wb") as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                 stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, child.returncode, stderr_path.read_text(errors="replace")


def operation_problems(expected: checker.Expectation, out_dir: Path, code: int, stderr: str,
                       reference: dict[str, str] | None) -> tuple[list[str], dict[str, str]]:
    """Why one compute run counts as failed (nothing if it passed), and its report digests.

    A run fails when it exits non-zero, when the checker finds a problem
    in its reports, or when its digests differ from ``reference``.
    """
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-2000:]}"], {}
    problems = checker.check_reports(expected, out_dir)
    digests = checker.sha256s(out_dir)
    if reference is not None and digests != reference:
        problems.append("report sha256 digests differ from the first run")
    return problems, digests


def layer_metrics(trace: dict, rows: int, subset_rows: int) -> dict[str, float]:
    """Per-layer figures from one traced run's spans."""
    spans = trace["spans"]
    total: dict[str, float] = {}
    for name, start, end, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
    last_rss = {name: rss for name, _, _, _, rss in spans}
    main_index = next(i for i, s in enumerate(spans) if s[0] == "cli.main")
    main = spans[main_index]
    children = sum(end - start for _, start, end, parent, _ in spans if parent == main_index)
    parse_events = total["domain_model.parse_events"]
    compute = total["reporting.compute_student"]
    return {
        "domain_model.parse_spec_s": total["domain_model.parse_spec"],
        "domain_model.parse_events_s": parse_events,
        "domain_model.rows_per_s": rows / parse_events,
        "domain_model.peak_rss_mb": last_rss["domain_model.parse_events"],
        "session_derivation.derive_s": total["session_derivation.derive_responses"]
        + total["session_derivation.derive_answer_sequence"],
        "reporting.compute_student_s": compute,
        "reporting.subset_rows_per_s": subset_rows / compute,
        "reporting.compute_peak_rss_mb": last_rss["reporting.compute_student"],
        "analytics.grouping_s": total["analytics.build_grouping"]
        + total["analytics.attach_group_indices"],
        "reporting.class_summary_s": total["reporting.build_class_summary"],
        "reporting.render_students_json_s": total["reporting.as_dict"]
        + total["reporting.render_json.students"],
        "reporting.render_peak_rss_mb": last_rss["reporting.render_json.students"],
        "reporting.render_class_s": total["reporting.render_json.class"]
        + total["reporting.plotdata"],
        "reporting.flat_csv_s": total.get("reporting.flat_csv", 0.0)
        + total.get("out_of_band.flat_csv", 0.0),
        "cli.main_s": main[2] - main[1],
        "cli.io_s": main[2] - main[1] - children,
        "cli.import_s": trace["import_s"],
    }


def unit_of(name: str) -> str:
    for suffix, unit in (("rows_per_s", "rows/s"), ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


@dataclass(frozen=True)
class Inputs:
    workload: workloads.Workload
    spec: Path
    events: Path
    header_only: Path
    rows: int
    expected: checker.Expectation

    def compute_argv(self, events: Path, out: Path) -> list[str]:
        return [sys.executable, "-m", "edumetrics", "compute", "--spec", str(self.spec),
                "--events", str(events), "--out", str(out),
                "--format", self.workload.output_format]


def prepare(workload: workloads.Workload, seed: int, work: Path) -> Inputs:
    """Write the workload's spec, its event log simulated from ``seed`` and a
    header-only log under ``work``, and derive the checker's expectations."""
    from edumetrics import parse_questionnaire

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec, events, header_only = work / "spec.json", work / "events.csv", work / "empty.csv"
    spec_text = workloads.spec_json(workload)
    spec.write_text(spec_text, encoding="utf-8")
    log, profiles = workloads.event_log(workload, parse_questionnaire(spec_text), seed)
    events.write_text(log, encoding="utf-8")
    header_only.write_text(log[: log.index("\n") + 1], encoding="utf-8")
    expected = checker.expect(spec, events, profiles, workload.output_format)
    return Inputs(workload, spec, events, header_only, log.count("\n") - 1, expected)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = prepare(workload, args.seed, WORK)
    expected = inputs.expected
    out_dir, spans_path = WORK / "out", WORK / "spans.json"
    students = len(expected.students)
    subset_rows = students * len(checker.subsets(expected.spec))
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    print(f"info: workload {workload.name}, seed {args.seed}, {students} students, "
          f"{inputs.rows} event rows, {subset_rows} subset rows, src/ {src_lines} lines")

    reference_argv = [sys.executable, "-I", str(BENCH / "reference.py"), str(WORK / "reference")]
    references: list[float] = []

    def reference() -> float | None:
        """Wall s of one reference run, or None (after a message) if it failed."""
        wall, _, code, err = run_child(reference_argv)
        if code != 0:
            print(f"error: reference.py exited {code}:\n{err}", file=sys.stderr)
            return None
        references.append(wall)
        return wall

    deadline = time.perf_counter() + args.seconds
    setup_argv = inputs.compute_argv(inputs.header_only, WORK / "setup")
    setup_times = []
    for repeat in range(SETUP_REPEATS + 1):  # the first pair warms caches and writes bytecode
        ref = reference()
        if ref is None:
            return 1
        wall, _, code, err = run_child(setup_argv)
        if code != 0:
            print(f"error: compute on a header-only log exited {code}:\n{err}", file=sys.stderr)
            return 1
        if repeat:
            setup_times.append(wall / ref * REFERENCE_S)

    attempted = failed = 0
    walls, scaled, rsses, overheads, traces = [], [], [], [], []
    digests: dict[str, str] | None = None

    def operation(argv: list[str]) -> tuple[float, float] | None:
        """One compute run plus its checks: (wall s, max RSS MB), or None if it failed."""
        nonlocal attempted, failed, digests
        attempted += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        wall, rss, code, err = run_child(argv)
        problems, found = operation_problems(expected, out_dir, code, err, digests)
        if digests is None and not problems:
            digests = found
        if problems:
            failed += 1
            print(f"operation {attempted} failed: " + "; ".join(problems[:10]), file=sys.stderr)
            return None
        return wall, rss

    untraced = inputs.compute_argv(inputs.events, out_dir)
    out_of_band = "1" if workload.output_format != "csv" else "0"
    traced = [sys.executable, str(BENCH / "traced.py"), str(spans_path), out_of_band, "--",
              *untraced[3:]]
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        ref = None
        if not args.trace:
            ref = reference()
            if ref is None:
                return 1
        plain = operation(untraced)
        if plain is not None:
            walls.append(plain[0])
            rsses.append(plain[1])
            if ref is not None:
                scaled.append(plain[0] / ref * REFERENCE_S)
        if args.trace:
            result = operation(traced)
            if result is not None:
                trace = json.loads(spans_path.read_text(encoding="utf-8"))
                traces.append(layer_metrics(trace, inputs.rows, subset_rows))
            if result is not None and plain is not None:
                extra = sum(e - s for n, s, e, _, _ in trace["spans"] if n.startswith("out_of_band"))
                overheads.append(result[0] - extra - plain[0])

    for name, digest in sorted((digests or {}).items()):
        print(f"sha256 {digest}  {name}")
    if not walls or (args.trace and not overheads):
        print("error: no operation succeeded", file=sys.stderr)
        return 1

    if args.trace:
        values = {name: statistics.median(t[name] for t in traces) for name in traces[0]}
        values["trace.overhead_s"] = statistics.median(overheads)
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    else:
        wall_s = statistics.median(scaled)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "students_per_s": {"value": students / wall_s, "unit": "students/s"},
            "peak_rss_mb": {"value": statistics.median(rsses), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(f"info: {rounds} rounds; unscaled compute wall s min {min(walls):.4f}, "
          f"median {statistics.median(walls):.4f}, max {max(walls):.4f}; "
          f"reference wall s median {statistics.median(references):.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
