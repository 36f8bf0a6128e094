"""Property test: ``edumetrics compute`` on mutated inputs exits 0 with
every report written, or 1 with a message that names the file and
locates the fault, and never lets an exception escape."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from edumetrics import event_log_csv, profile_from_name, serialize_questionnaire, simulate_class
from edumetrics.cli import main
from helpers import make_question, make_spec

SPEC = make_spec(
    questions=[
        make_question(1, subject="Maths", topics=(1,)),
        make_question(2, subject="Art", topics=(1, 2), weights=(0, 1, 2, 3, 4)),
        make_question(3, subject="Maths", topics=(2,), qdi=5, expected_time_s=90.5),
    ]
)
SPEC_DOC = json.loads(serialize_questionnaire(SPEC))


def _event_rows():
    sessions = []
    for index, name in enumerate(("self-corrector", "disordered", "guesser")):
        sessions += simulate_class(profile_from_name(name, 5 + index), SPEC, 1, f"{name}-")
    rows = [line.split(",") for line in event_log_csv(sessions).splitlines()]
    rows.append([sessions[0].student_id, "", "end", "", str(sessions[0].session_end_ms + 500)])
    return rows


EVENT_ROWS = _event_rows()
REPORTS = (
    "students.json", "class.json", "students.csv", "questions.csv",
    "plotdata/groups_histogram.csv", "plotdata/ad_vs_qucl.csv", "plotdata/subject_srt.csv",
)


def _paths(value, prefix=()):
    """Every key or index path below ``value``."""
    steps = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in steps:
        yield prefix + (key,)
        if isinstance(item, (dict, list)):
            yield from _paths(item, prefix + (key,))


DROP = object()
JSON_VALUES = st.sampled_from(
    ["", "x", "a", -5, 0, 1, 3, 4, 1.5, 10**400, float("inf"), float("nan"), None, True,
     [], {}, [1], {"x": 1}, DROP]
)
SPEC_EDITS = st.lists(st.tuples(st.sampled_from(list(_paths(SPEC_DOC))), JSON_VALUES), max_size=2)
FIELD_VALUES = st.sampled_from(
    ["", "x", "-5", "0", "1" + "0" * 400, "99", " 2", "a", "z", "end", "view", "answer",
     '"', "a,b", "\r", "\n", DROP]
)
EVENT_EDITS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(EVENT_ROWS) - 1),
        st.integers(min_value=0, max_value=5),
        FIELD_VALUES,
    ),
    max_size=3,
)


def _edit_spec(edits):
    doc = json.loads(json.dumps(SPEC_DOC))
    for path, value in edits:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[path[-1]]
            else:
                # A copy: the sampled [] and {} are shared by every example, and a
                # later edit of this example may write into the value.
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            continue
    return json.dumps(doc)


def _edit_events(edits):
    rows = [list(row) for row in EVENT_ROWS]
    for row, field, value in edits:
        fields = rows[row]
        if value is DROP:
            del fields[min(field, len(fields) - 1)]
        elif field < len(fields):
            fields[field] = value
        else:
            fields.append(value)
    return "".join(",".join(fields) + "\n" for fields in rows)


@settings(max_examples=150, deadline=None, database=None)
@given(spec_edits=SPEC_EDITS, event_edits=EVENT_EDITS)
@example(spec_edits=[], event_edits=[(22, 4, "1" + "0" * 400)])  # a student with no end row
@example(spec_edits=[], event_edits=[(2, 3, "a" * 131_073)])
def test_compute_on_mutated_inputs(spec_edits, event_edits):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, events_path, out = Path(tmp, "spec.json"), Path(tmp, "events.csv"), Path(tmp, "out")
        spec_path.write_text(_edit_spec(spec_edits), encoding="utf-8")
        events_path.write_text(_edit_events(event_edits), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(
                ["compute", "--spec", str(spec_path), "--events", str(events_path),
                 "--out", str(out), "--format", "csv"]
            )
        message = stderr.getvalue()
        assert code in (0, 1), message
        if code == 1:
            assert message.startswith((f"error: {spec_path}: ", f"error: {events_path}: ")), message
            assert "line " in message or "field=" in message, message
        else:
            assert message == ""
            assert all((out / name).is_file() for name in REPORTS)


@settings(max_examples=15, deadline=None, database=None)
@given(digits=st.integers(min_value=1, max_value=6000),
       depth=st.integers(min_value=0, max_value=3000))
@example(digits=5000, depth=0)
@example(digits=1, depth=200_000)
def test_compute_on_long_numbers_and_deep_nesting(digits, depth):
    body = json.dumps(dict(SPEC_DOC, max_total_time_s=0)).replace(
        '"max_total_time_s": 0', '"max_total_time_s": ' + "7" * digits
    )
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, events_path, out = Path(tmp, "spec.json"), Path(tmp, "events.csv"), Path(tmp, "out")
        spec_path.write_text("[" * depth + body + "]" * depth, encoding="utf-8")
        events_path.write_text(_edit_events([]), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(
                ["compute", "--spec", str(spec_path), "--events", str(events_path),
                 "--out", str(out), "--format", "csv"]
            )
        message = stderr.getvalue()
        assert code == (0 if depth == 0 and digits <= 308 else 1), message
        if code == 1:
            assert message.startswith(f"error: {spec_path}: "), message
            assert "Traceback" not in message
        else:
            assert all((out / name).is_file() for name in REPORTS)
