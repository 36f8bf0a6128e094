"""Command-line pipeline: parse inputs, compute metrics, emit reports.

Input files are read and parsed in order, spec first, so the first bad
file is the one reported. ``main`` alone turns an error into an
``error:`` line and an exit code: 0 on success; 1 for parse/validation
problems, including input that is not UTF-8 (reported with its line), an
out-of-range option value and an unknown simulation profile; 2 for I/O
failures and, from argparse, command-line usage errors. Output files are
written atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import NoReturn

from .analytics import build_grouping
from .domain_model import event_log_csv, parse_event_log, parse_questionnaire
from .errors import DomainError, EduMetricsError, ParseError, check_range
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

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2

def _write_text(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # A fresh name opened exclusively, as open() creates files: the umask sets the mode.
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load(path: str, parse, *args, **kwargs):
    """``parse(text, *args, **kwargs)`` on the UTF-8 text of ``path``, read
    past a leading byte-order mark if there is one.

    A decode or parse failure is raised as an error whose message starts
    with the path; the text is dropped when the parse returns.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        # Count line breaks as read_text translates them: \n, \r\n and lone \r.
        head = exc.object[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(f"{path}: not valid UTF-8: {exc.reason}", line=line) from exc
    try:
        return parse(text, *args, **kwargs)
    except EduMetricsError as exc:
        raise EduMetricsError(f"{path}: {exc}") from exc


def run_compute(args: argparse.Namespace) -> None:
    # Every object the run builds is acyclic, so the cyclic collector would
    # only rescan the growing heap. It is turned back on if it was on.
    enabled = gc.isenabled()
    gc.disable()
    try:
        _compute(args)
    finally:
        if enabled:
            gc.enable()


def _compute(args: argparse.Namespace) -> None:
    check_range("--threshold", args.threshold, 0, 1)

    spec = _load(args.spec, parse_questionnaire, allow_any_option_count=args.allow_any_option_count)
    sessions = _load(args.events, parse_event_log, spec)
    srt_mode = pick_log_srt_mode(sessions) if args.srt_mode == "auto" else SrtMode(args.srt_mode)
    reports = [compute_student(s, spec, srt_mode, args.threshold) for s in sessions]
    # Nothing after compute_student reads the sessions: the class reduce and
    # the renders need not hold them.
    del sessions
    scheme = build_grouping(len(reports)) if reports else None
    if scheme is not None:
        reports = attach_group_indices(reports, scheme)
    summary = build_class_summary(reports, spec, scheme, args.threshold, args.srt_mode)

    out_dir = Path(args.out)
    if args.format != "csv":
        # A flat CSV left by an earlier run would sit next to reports it does not match.
        for name in ("students.csv", "questions.csv"):
            (out_dir / name).unlink(missing_ok=True)
    _write_text(out_dir / "students.json", render_json([r.as_dict() for r in reports]))
    _write_text(out_dir / "class.json", render_json(summary))
    plotdata = out_dir / "plotdata"
    _write_text(plotdata / "groups_histogram.csv", groups_histogram_csv(reports, scheme))
    _write_text(plotdata / "ad_vs_qucl.csv", ad_vs_qucl_csv(reports))
    _write_text(plotdata / "subject_srt.csv", subject_srt_csv(reports, spec))
    if args.format == "csv":
        _write_text(out_dir / "students.csv", students_csv(reports))
        _write_text(out_dir / "questions.csv", questions_csv(reports))


def run_simulate(args: argparse.Namespace) -> None:
    from .simulator import MASK64, profile_from_name, simulate_class

    if not 0 <= args.seed <= MASK64:
        raise DomainError("--seed must fit in 64 bits")
    if args.count < 0:
        raise DomainError("--count must be non-negative")
    profile = profile_from_name(args.profile, args.seed)
    spec = _load(args.spec, parse_questionnaire, allow_any_option_count=args.allow_any_option_count)
    _write_text(Path(args.out), event_log_csv(simulate_class(profile, spec, args.count)))


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
        choices=("auto", *(mode.value for mode in SrtMode)),
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
    try:
        (run_compute if args.command == "compute" else run_simulate)(args)
    except EduMetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def console_entry() -> NoReturn:
    """Run ``main`` as the ``edumetrics`` command and ``python -m edumetrics``.

    Once ``main`` returns, every report file is written, closed and renamed,
    so the process flushes its standard streams and ends with ``os._exit``
    instead of tearing the interpreter down. A ``SystemExit`` from argparse
    leaves the normal way.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
