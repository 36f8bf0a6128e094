"""Mutation checks: each mutant breaks one guarded line of ``src/`` and names
the tests that must fail on it.

Run ``python tests/mutants.py`` from anywhere. It copies ``src/``, ``tests/``,
``perfbench/`` and ``pyproject.toml`` to a temporary directory, so nothing is
written inside the checkout, and checks that every named test passes on the
unmutated copy. It then applies one mutant at a time, runs that mutant's tests
with ``-x -q`` and exits non-zero naming each mutant that survives.

Each old text occurs exactly once in its file (``tests/test_mutants.py``), so
a change that moves a guarded line fails loudly and must re-point its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, of which one at least must fail


MUTANTS = (
    Mutant(
        "cell memo keyed by value alone",
        "src/edumetrics/reporting.py",
        "lru_cache(maxsize=None, typed=True)",
        "lru_cache(maxsize=None, typed=False)",
        ("tests/test_reporting.py::test_equal_values_of_different_types_stay_apart",),
    ),
    Mutant(
        "group floors open",
        "src/edumetrics/analytics.py",
        "bisect_right(scheme.bounds",
        "bisect_left(scheme.bounds",
        ("tests/test_analytics.py::test_assign_group_floor_is_closed",
         "tests/test_analytics.py::test_assign_group_is_total_and_unique"),
    ),
    Mutant(
        "1.0 past the last group",
        "src/edumetrics/analytics.py",
        "return min(bisect_right(scheme.bounds, value, key=itemgetter(1)) + 1, scheme.k)",
        "return bisect_right(scheme.bounds, value, key=itemgetter(1)) + 1",
        ("tests/test_analytics.py::test_assign_group_worked_cases",
         "tests/test_analytics.py::test_assign_group_is_total_and_unique"),
    ),
    Mutant(
        "parse paths disagree silently",
        "src/edumetrics/domain_model.py",
        '        raise RuntimeError("the column check refused an event log that the row loop reads")\n',
        "",
        ("tests/test_parse_paths.py::"
         "test_a_log_the_check_refuses_and_the_row_loop_reads_is_a_program_fault",),
    ),
    Mutant(
        "a repeated question counted as a step-down",
        "src/edumetrics/reporting.py",
        "descents[i] += last[i] > qid",
        "descents[i] += last[i] >= qid",
        ("tests/test_reporting.py::test_view_mode_report_bytes_match_recorded_digests",),
    ),
    Mutant(
        "transitions taken as the markings",
        "src/edumetrics/reporting.py",
        "transitions = max(total_markings - 1, 0)",
        "transitions = total_markings",
        ("tests/test_reporting.py::test_report_bytes_match_recorded_digests",
         "tests/test_reporting.py::test_compute_student_rows_equal_metric_definitions"),
    ),
)


def _pytest(copy: Path, *args: str) -> int:
    # No bytecode: a mutant and its undoing may share a file's size and mtime second.
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        every_test = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if _pytest(copy, *every_test) != 0:
            print("the unmutated copy fails the mutants' tests", file=sys.stderr)
            return 1
        survivors = []
        for mutant in MUTANTS:
            path = copy / mutant.path
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                survivors.append(f"{mutant.name} (its old text does not occur once)")
                continue
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            survived = _pytest(copy, "-x", *mutant.tests) == 0
            path.write_text(original, encoding="utf-8")
            print(f"{'survived' if survived else 'killed'}: {mutant.name}")
            if survived:
                survivors.append(mutant.name)
    for name in survivors:
        print(f"survivor: {name}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
