"""The benchmark's traced run still finds every function it wraps: a
refactor that renames or bypasses one of them fails here, not only in a
``--trace 1`` benchmark run. Reads ``perfbench/`` and writes nothing there."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from edumetrics import event_log_csv, profile_from_name, serialize_questionnaire, simulate_class
from helpers import make_question, make_spec

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_run(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_run_yields_every_per_layer_metric(tmp_path, monkeypatch):
    spec = make_spec([make_question(i + 1, subject="AB"[i % 2], topics=(i % 3,)) for i in range(4)])
    sessions = simulate_class(profile_from_name("self-corrector", 3), spec, 4)
    log = event_log_csv(sessions)
    spec_path, events_path = tmp_path / "spec.json", tmp_path / "events.csv"
    spec_path.write_text(serialize_questionnaire(spec), encoding="utf-8")
    events_path.write_text(log, encoding="utf-8")
    spans_path = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(spans_path), "1", "--",
         "compute", "--spec", str(spec_path), "--events", str(events_path),
         "--out", str(tmp_path / "out"), "--format", "csv"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr

    run = _load_run(monkeypatch)
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    rows = log.count("\n") - 1
    metrics = run.layer_metrics(trace, rows, len(sessions) * len(spec.subset_layout))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    # run.py adds the tracing overhead itself, from a plain run next to the traced one.
    assert set(metrics) == {m["name"] for m in declared} - {"trace.overhead_s"}
    assert all(value >= 0 for value in metrics.values())
