"""Traced in-process run of ``edumetrics compute``.

Usage: python3 traced.py SPANS_JSON OUT_OF_BAND_CSV -- compute ARGS...

Run in a fresh interpreter with the package on PYTHONPATH. It times the
import of ``edumetrics.cli``, wraps the public functions that
``cli.run_compute`` calls with span recorders, calls
``cli.main(["compute", ...])`` in this process and writes the spans
(name, start, end, parent index, RSS high-water mark) to SPANS_JSON at
the end. With OUT_OF_BAND_CSV set to 1 it then also times the flat CSV
renderers on the same reports, in a span outside ``cli.main``, for
workloads whose compute run does not write them.
"""

import sys
import time

_import_start = time.perf_counter()
import edumetrics.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from edumetrics import reporting  # noqa: E402


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, max RSS MB]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.captured: dict = {}

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
            self.spans[index][4] = _max_rss_mb()

    def wrap(self, owner, attr: str, name, capture: bool = False) -> None:
        """Replace ``owner.attr`` by a recorder; ``name`` may be a function of the arguments."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            result = self.span(label, fn, *args, **kwargs)
            if capture:
                self.captured[attr] = result
            return result

        setattr(owner, attr, traced)


def main(argv: list[str]) -> int:
    spans_path, out_of_band = argv[0], argv[1] == "1"
    compute_args = argv[argv.index("--") + 1:]
    tracer = Tracer()
    for attr, name in (
        ("parse_questionnaire", "domain_model.parse_spec"),
        ("parse_event_log", "domain_model.parse_events"),
        ("compute_student", "reporting.compute_student"),
        ("build_grouping", "analytics.build_grouping"),
        ("build_class_summary", "reporting.build_class_summary"),
        ("groups_histogram_csv", "reporting.plotdata"),
        ("ad_vs_qucl_csv", "reporting.plotdata"),
        ("subject_srt_csv", "reporting.plotdata"),
        ("students_csv", "reporting.flat_csv"),
        ("questions_csv", "reporting.flat_csv"),
    ):
        tracer.wrap(cli, attr, name)
    tracer.wrap(cli, "attach_group_indices", "analytics.attach_group_indices", capture=True)
    tracer.wrap(
        cli,
        "render_json",
        lambda value: "reporting.render_json.students"
        if isinstance(value, list)
        else "reporting.render_json.class",
    )
    tracer.wrap(reporting, "derive_responses", "session_derivation.derive_responses")
    tracer.wrap(reporting, "derive_answer_sequence", "session_derivation.derive_answer_sequence")
    tracer.wrap(reporting.StudentMetricsReport, "as_dict", "reporting.as_dict")

    code = tracer.span("cli.main", cli.main, compute_args)
    if code == 0 and out_of_band:
        reports = tracer.captured["attach_group_indices"]
        tracer.span(
            "out_of_band.flat_csv",
            lambda: (reporting.students_csv(reports), reporting.questions_csv(reports)),
        )
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"import_s": IMPORT_S, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
