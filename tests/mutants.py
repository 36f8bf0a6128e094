"""Mutation checks: each mutant breaks one guarded line of ``src/`` and names
the tests that must fail on it.

Run ``python tests/mutants.py`` from anywhere. It copies ``src/``, ``tests/``,
``perfbench/`` and ``pyproject.toml`` to a temporary directory, so nothing is
written inside the checkout, and checks that every named test passes on the
unmutated copy. It then applies one mutant at a time, runs that mutant's tests
with ``-x -q`` and counts the mutant killed only when pytest exits 1 (tests
failed). It exits non-zero naming each mutant that survives or is broken: its
tests could not run, as after an import error or with an unknown test id.

Each old text occurs exactly once in its file, and each named test's file
defines its test function (``tests/test_mutants.py``), so a change that moves
a guarded line or renames a test fails loudly and must re-point its mutant.
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
        ("tests/test_reporting.py::"
         "test_a_question_answered_again_after_another_is_no_step_down_in_its_topic",
         "tests/test_reporting.py::test_view_mode_report_bytes_match_recorded_digests"),
    ),
    Mutant(
        "transitions taken as the markings",
        "src/edumetrics/reporting.py",
        "transitions = max(total_markings - 1, 0)",
        "transitions = total_markings",
        ("tests/test_reporting.py::test_report_bytes_match_recorded_digests",
         "tests/test_reporting.py::test_compute_student_rows_equal_metric_definitions"),
    ),
    Mutant(
        "quadrant and group cells on every subset row",
        "src/edumetrics/reporting.py",
        "            end = blank\n",
        "",
        ("tests/test_report_writers.py::test_flat_csvs_equal_csv_writer_over_the_row_values",),
    ),
    Mutant(
        "text fields written raw",
        "src/edumetrics/reporting.py",
        "return zip(*columns)",
        "return rows",
        ("tests/test_report_writers.py::test_flat_csvs_equal_csv_writer_over_the_row_values",
         "tests/test_report_writers.py::"
         "test_students_json_equals_the_generic_render_of_the_row_dicts"),
    ),
    Mutant(
        "no timestamp range check in the row loop",
        "src/edumetrics/domain_model.py",
        '            _check_timestamp_ms(timestamp_ms, "timestamp_ms")\n'
        '            if raw_event == "end":',
        '            if raw_event == "end":',
        ("tests/test_parse_error_locations.py::test_row_fault_is_reported_at_its_line",),
    ),
    Mutant(
        "duplicate topic ids accepted",
        "src/edumetrics/domain_model.py",
        "        if len(set(topic_ids)) != len(topic_ids):\n"
        '            raise ValidationError("duplicate topic_id", field="topic_ids", '
        'question_id=qid)\n',
        "",
        ("tests/test_parse_error_locations.py::test_question_fault_names_its_question",),
    ),
    Mutant(
        "a bool read as a spec number",
        "src/edumetrics/domain_model.py",
        "if isinstance(value, bool) or not isinstance(value, kinds):",
        "if not isinstance(value, kinds):",
        ("tests/test_error_contract.py::"
         "test_malformed_spec_outcomes_match_recorded_digests[wrong-type]",),
    ),
    Mutant(
        "a bool inside a metric range",
        "src/edumetrics/errors.py",
        "if not lo <= value <= hi or type(value) is bool:",
        "if not lo <= value <= hi:",
        ("tests/test_raise_sites.py::test_raise_site[comprehension-srt-boolean]",),
    ),
    Mutant(
        "an end row only for a session without events",
        "src/edumetrics/domain_model.py",
        "if not session.events or session.session_end_ms != session.events[-1].timestamp_ms:",
        "if not session.events:",
        ("tests/test_error_contract.py::"
         "test_malformed_log_outcomes_match_recorded_digests[added-field-default-slices]",),
    ),
)


def _pytest(copy: Path, *args: str) -> int:
    # No bytecode: a mutant and its undoing may share a file's size and mtime second.
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


# Only exit 1 (tests failed) is a kill. 2 to 5 (an import or collection error,
# an internal error, a usage error such as an unknown test id, no tests
# collected) mean the mutant or its test list is broken.
OUTCOMES = {0: "survived", 1: "killed"}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        every_test = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code = _pytest(copy, *every_test)
        if code != 0:
            print(f"the unmutated copy fails the mutants' tests (pytest exit {code})",
                  file=sys.stderr)
            return 1
        faults = []
        for mutant in MUTANTS:
            path = copy / mutant.path
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                faults.append(f"{mutant.name} (its old text does not occur once)")
                continue
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            code = _pytest(copy, "-x", *mutant.tests)
            path.write_text(original, encoding="utf-8")
            outcome = OUTCOMES.get(code, f"broken (pytest exit {code})")
            print(f"{outcome}: {mutant.name}")
            if code != 1:
                faults.append(f"{mutant.name} ({outcome})")
    for fault in faults:
        print(f"not killed: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
