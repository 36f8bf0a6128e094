#!/usr/bin/env python3
"""Show that the benchmark's checks catch a wrong output.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seed N]

It runs ``edumetrics compute`` once on the ``cohort`` workload (JSON and
CSV reports), confirms that the run passes, then makes one altered copy
of the reports per case below, each differing from the real output in
exactly one value, and requires that the benchmark's per-operation check
reports each copy as a failed operation. Exits 0 when every alteration
is caught, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from pathlib import Path

import run


def _edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _edit_csv(path: Path, change) -> None:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    change(rows)
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _bump(row: list[str], column: int, by: float) -> None:
    row[column] = format(float(row[column]) + by, ".4f")


def _student(doc: list[dict], sid: str) -> dict:
    return next(r for r in doc if r["student_id"] == sid)


def cases(expected) -> list[tuple[str, str, object]]:
    """(description, report file, alteration of exactly one value)."""
    sampled = next(iter(expected.sample))
    unsampled = {
        profile: next(s for s, p in expected.profiles.items()
                      if p == profile and s not in expected.sample)
        for profile in ("assured", "guesser")
    }

    def sampled_row(rows: list[list[str]]) -> list[str]:
        return next(r for r in rows if r[0] == sampled)

    return [
        ("srt_s of a sampled student's question", "students.json",
         lambda d: _student(d, sampled)["questions"][0].update(
             srt_s=_student(d, sampled)["questions"][0]["srt_s"] + 0.5)),
        ("ts of an unsampled assured student", "students.json",
         lambda d: _student(d, unsampled["assured"])["subsets"][0].update(ts=9.75)),
        ("qcl of an unsampled guesser", "students.json",
         lambda d: _student(d, unsampled["guesser"])["questions"][0].update(
             qcl=_student(d, unsampled["guesser"])["questions"][0]["qcl"] + 0.01)),
        ("class mean srt of question 1", "class.json",
         lambda d: d["srt_vs_expected"][0].update(mean_srt_s=d["srt_vs_expected"][0]["mean_srt_s"] + 0.01)),
        ("General disorder average", "class.json",
         lambda d: d["disorder"][-1].update(average=d["disorder"][-1]["average"] + 0.01)),
        ("an approval split count", "class.json",
         lambda d: d["approval_splits"][0].update(below=d["approval_splits"][0]["below"] + 1)),
        ("the last topic priority", "class.json",
         lambda d: d["topic_priorities"][-1].update(normalized_priority=1.0)),
        ("a groups histogram count", "plotdata/groups_histogram.csv",
         lambda rows: rows[1].__setitem__(2, str(int(rows[1][2]) + 1))),
        ("qcl of a sampled student in questions.csv", "questions.csv",
         lambda rows: _bump(sampled_row(rows), 6, 0.01)),
        ("ts of a sampled student in students.csv", "students.csv",
         lambda rows: _bump(sampled_row(rows), 3, -0.25)),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    work = run.WORK / "selftest"
    inputs = run.prepare(run.workloads.WORKLOADS["cohort"], args.seed, work)
    out_dir = work / "out"
    _, _, code, err = run.run_child(inputs.compute_argv(inputs.events, out_dir))
    problems, digests = run.operation_problems(inputs.expected, out_dir, code, err, None)
    if problems:
        print("FAIL: the unaltered reports do not pass: " + "; ".join(problems[:10]))
        return 1
    print("ok: the unaltered reports pass")

    missed = 0
    altered = work / "altered"
    for what, name, change in cases(inputs.expected):
        shutil.rmtree(altered, ignore_errors=True)
        shutil.copytree(out_dir, altered)
        path = altered / name
        (_edit_json if name.endswith(".json") else _edit_csv)(path, change)
        problems, _ = run.operation_problems(inputs.expected, altered, 0, "", None)
        missed += not problems
        print(f"{'caught' if problems else 'MISSED'}: {what} ({name})"
              + (f": {problems[0]}" if problems else ""))

    # A file no check reads is still pinned by the digests of the first run.
    shutil.rmtree(altered)
    shutil.copytree(out_dir, altered)
    _edit_csv(altered / "plotdata" / "subject_srt.csv", lambda rows: _bump(rows[1], 1, 0.0001))
    problems, _ = run.operation_problems(inputs.expected, altered, 0, "", digests)
    missed += not problems
    print(f"{'caught' if problems else 'MISSED'}: one value of subject_srt.csv against the "
          "first run's digests" + (f": {problems[0]}" if problems else ""))

    shutil.rmtree(work)
    print("all alterations caught" if not missed else f"{missed} alterations missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
