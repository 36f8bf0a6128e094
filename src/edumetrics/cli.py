"""Command-line pipeline: parse inputs, compute metrics, emit reports.

Exit codes: 0 on success, 1 for parse/validation problems (including an
unknown simulation profile), 2 for I/O failures. Output files are
written atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from .analytics import build_grouping
from .domain_model import event_log_csv, parse_event_log, parse_questionnaire
from .errors import DomainError, ParseError, SimulationError, ValidationError
from .reporting import (
    ad_vs_qucl_csv,
    attach_group_indices,
    build_class_summary,
    compute_student,
    groups_histogram_csv,
    questions_csv,
    render_json,
    students_csv,
    subject_srt_csv,
)
from .session_derivation import SrtMode, pick_log_srt_mode
from .simulator import MASK64, profile_from_name, simulate_class

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2

_SRT_MODES = {
    "auto": None,
    "view": SrtMode.VIEW_INTERVALS,
    "answer": SrtMode.ANSWER_INTERVALS,
}


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_text(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def run_compute(args: argparse.Namespace) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        return _fail(f"--threshold must lie in [0, 1], got {args.threshold}", EXIT_INPUT)

    try:
        spec_text = _read_text(args.spec)
        events_text = _read_text(args.events)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    try:
        spec = parse_questionnaire(
            spec_text, allow_any_option_count=args.allow_any_option_count
        )
    except (ParseError, ValidationError) as exc:
        return _fail(f"{args.spec}: {exc}", EXIT_INPUT)
    try:
        sessions = parse_event_log(events_text, spec)
    except (ParseError, ValidationError) as exc:
        return _fail(f"{args.events}: {exc}", EXIT_INPUT)

    srt_mode = _SRT_MODES[args.srt_mode] or pick_log_srt_mode(sessions)
    reports = [compute_student(s, spec, srt_mode, args.threshold) for s in sessions]
    scheme = build_grouping(len(reports)) if reports else None
    if scheme is not None:
        reports = attach_group_indices(reports, scheme)
    summary = build_class_summary(reports, spec, scheme, args.threshold, args.srt_mode)

    out_dir = Path(args.out)
    try:
        _write_text(out_dir / "students.json", render_json([r.as_dict() for r in reports]))
        _write_text(out_dir / "class.json", render_json(summary))
        plotdata = out_dir / "plotdata"
        _write_text(plotdata / "groups_histogram.csv", groups_histogram_csv(reports, scheme))
        _write_text(plotdata / "ad_vs_qucl.csv", ad_vs_qucl_csv(reports))
        _write_text(plotdata / "subject_srt.csv", subject_srt_csv(reports, spec))
        if args.format == "csv":
            _write_text(out_dir / "students.csv", students_csv(reports))
            _write_text(out_dir / "questions.csv", questions_csv(reports))
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    return EXIT_OK


def run_simulate(args: argparse.Namespace) -> int:
    if not 0 <= args.seed <= MASK64:
        return _fail("--seed must fit in 64 bits", EXIT_INPUT)
    if args.count < 0:
        return _fail("--count must be non-negative", EXIT_INPUT)
    try:
        profile = profile_from_name(args.profile, args.seed)
    except DomainError as exc:
        return _fail(str(exc), EXIT_INPUT)
    try:
        spec_text = _read_text(args.spec)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    try:
        spec = parse_questionnaire(
            spec_text, allow_any_option_count=args.allow_any_option_count
        )
    except (ParseError, ValidationError) as exc:
        return _fail(f"{args.spec}: {exc}", EXIT_INPUT)
    try:
        sessions = simulate_class(profile, spec, args.count)
    except SimulationError as exc:
        return _fail(str(exc), EXIT_INPUT)
    try:
        _write_text(Path(args.out), event_log_csv(sessions))
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edumetrics",
        description="Learning-analytics pipeline over assessment event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="compute per-student and class metrics from a spec and an event log"
    )
    compute.add_argument("--spec", required=True, help="questionnaire JSON file")
    compute.add_argument("--events", required=True, help="event CSV file")
    compute.add_argument(
        "--srt-mode",
        choices=tuple(_SRT_MODES),
        default="auto",
        help="time attribution; auto uses view intervals when the log has view events",
    )
    compute.add_argument(
        "--threshold", type=float, default=0.5, help="approval threshold on the [0, 1] scale"
    )
    compute.add_argument("--out", default="out", help="output directory")
    compute.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="csv additionally writes flattened students.csv and questions.csv",
    )
    compute.add_argument("--allow-any-option-count", action="store_true")

    simulate = sub.add_parser("simulate", help="generate synthetic students as an event CSV")
    simulate.add_argument("--spec", required=True, help="questionnaire JSON file")
    simulate.add_argument(
        "--profile",
        required=True,
        help="behavior profile: assured, guesser, self-corrector or disordered",
    )
    simulate.add_argument("--count", type=int, required=True, help="number of students")
    simulate.add_argument("--seed", type=int, default=0, help="base seed, 64-bit unsigned")
    simulate.add_argument("--out", required=True, help="output CSV path")
    simulate.add_argument("--allow-any-option-count", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compute":
        return run_compute(args)
    return run_simulate(args)


if __name__ == "__main__":
    sys.exit(main())
