"""``parse_event_log`` reads a plain log as whole columns and any other log
with its row loop. These tests pin that the two paths cannot be told apart,
that the simulator's logs stay on the column path, and that the empty-log
check copies nothing."""

import csv
import tracemalloc
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from edumetrics import (
    AssessmentEvent,
    EventKind,
    ParseError,
    ValidationError,
    event_log_csv,
    parse_event_log,
    profile_from_name,
    simulate_class,
)
from edumetrics import domain_model
from helpers import make_question, make_spec
from test_event_log_properties import SPEC, sessions_of
from test_parse_error_locations import ROW_FAULTS


def _set(index, change):
    def spell(fields):
        fields[index] = change(fields[index])
    return spell


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

# Spellings the row loop reads and the column path must leave to it, and
# other spellings that Python's int() reads; each changes the fields of one
# row in place.
SPELLINGS = {
    "quoted-id": _set(0, lambda f: f'"{f}"'),
    "quoted-newline": _set(1, lambda f: f'"{f}\n"'),  # int("3\n") is 3
    "padded-question": _set(1, lambda f: f" {f}"),
    "zero-question": _set(1, lambda f: f"0{f}"),
    "plus-question": _set(1, lambda f: f"+{f}"),
    "underscore-question": _set(1, lambda f: f"0_{f}"),
    "padded-timestamp": _set(4, lambda f: f" {f}"),
    "underscore-timestamp": _set(4, lambda f: f"{f[0]}_{f[1:]}" if len(f) > 1 else f),
    "arabic-indic-question": _set(1, lambda f: f.translate(ARABIC_INDIC)),
    "arabic-indic-timestamp": _set(4, lambda f: f.translate(ARABIC_INDIC)),
    "nul": _set(0, lambda f: f"{f}\0"),
    "long-field": _set(4, lambda f: f.zfill(40)),
    "crlf": _set(4, lambda f: f"{f}\r"),
    "cr-timestamp": _set(4, lambda f: f"\r{f}"),  # int("\r5") is 5; csv ends the row at the CR
    "end-row": lambda fields: fields.__setitem__(slice(1, 4), ["", "end", ""]),
}
SMALL_FIELD_LIMIT = 32
HEADER = ",".join(domain_model.EVENT_CSV_HEADER)


@st.composite
def texts(draw):
    """An event log with spellings at random rows, and maybe one fault in its
    second half, so that the column path reads slices before it."""
    header, *rows = event_log_csv(draw(sessions_of())).splitlines()
    rows = [row.split(",") for row in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        fields = draw(st.sampled_from(rows))
        SPELLINGS[draw(st.sampled_from(sorted(SPELLINGS)))](fields)
    fault = draw(st.sampled_from([None, *sorted(ROW_FAULTS)]))
    if fault is not None and rows:
        index = draw(st.integers(min_value=len(rows) // 2, max_value=len(rows) - 1))
        student_id, _, _, _, timestamp = rows[index]
        rows[index] = ROW_FAULTS[fault][0](student_id, timestamp)
    lines = [header, *map(",".join, rows)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), "")
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        lines[0] = "\ufeff" + lines[0]
    eol = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def rows_only(text, spec):
    """A column path that hands the whole log to the row loop."""
    return None


def outcome(text):
    """The sessions parsed from ``text``, or its error's type, message, field and line."""
    try:
        sessions = parse_event_log(text, SPEC)
    except (ParseError, ValidationError) as err:
        return type(err), str(err), getattr(err, "field", None), err.line
    for session in sessions:
        for event in session.events:
            assert type(event) is AssessmentEvent
            assert event.student_id is session.student_id
    return sessions


@settings(max_examples=400, deadline=None, database=None)
@example(text=f"{HEADER}\ns1,1,view,,{'5':0>40}\n", chunk=64, field_limit=SMALL_FIELD_LIMIT)
@example(text=f"{HEADER}\ns1,1,view,,5\ns1,1,view,,\r6\n", chunk=64, field_limit=None)
@given(
    text=texts(),
    chunk=st.sampled_from([1, 7, 64, domain_model._CHUNK_CHARS]),
    field_limit=st.sampled_from([None, SMALL_FIELD_LIMIT]),
)
def test_column_path_and_row_loop_agree(text, chunk, field_limit):
    default_limit = csv.field_size_limit()
    try:
        if field_limit is not None:
            csv.field_size_limit(field_limit)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(domain_model, "_CHUNK_CHARS", chunk)
            both = outcome(text)
            patch.setattr(domain_model, "_parse_columns", rows_only)
            expected = outcome(text)
    finally:
        csv.field_size_limit(default_limit)
    assert both == expected


@pytest.mark.parametrize(
    "rows",
    [
        # Each pair of lines holds the ten fields of two valid rows, cut in the wrong place.
        ["s1,1,view,,5,s1", "1,view,,6"],
        ["s1,1,view,", "5,s1,1,view,,6"],
    ],
)
def test_rows_that_realign_as_columns_are_refused(rows):
    text = "\n".join([HEADER, *rows]) + "\n"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(domain_model, "_parse_columns", rows_only)
        expected = outcome(text)
    assert outcome(text) == expected
    assert type(expected) is not list


def _rows_refused(*args):
    raise AssertionError("the row loop was reached")


def _views_stripped(sessions):
    return [
        replace(s, events=tuple(e for e in s.events if e.kind is EventKind.ANSWER))
        for s in sessions
    ]


def _class(profiles, spec, views=True, **knobs):
    sessions = []
    for seed, name in enumerate(profiles):
        profile = profile_from_name(name, seed, **knobs)
        sessions += simulate_class(profile, spec, 12, id_prefix=f"{name}-")
    return sessions if views else _views_stripped(sessions)


PROFILES = ("assured", "guesser", "self-corrector", "disordered")
WIDE_SPEC = make_spec([
    make_question(i + 1, subject=f"S{i % 8}", topics=tuple(range(i % 12, 48, 12)))
    for i in range(40)
])


@pytest.mark.parametrize(
    "spec, views, markings_range, profiles, blank_lines",
    [
        (make_spec(n=40), True, (2, 5), PROFILES, False),
        (WIDE_SPEC, True, (2, 5), PROFILES, False),
        (make_spec(n=40), False, (8, 16), ["self-corrector"], False),
        (make_spec(n=40), True, (2, 5), PROFILES, True),
    ],
    ids=[
        "four-profiles-with-views", "many-topics-with-views", "self-correctors-without-views",
        "four-profiles-with-blank-lines",
    ],
)
def test_simulated_logs_parse_whole_on_the_column_path(
    spec, views, markings_range, profiles, blank_lines, monkeypatch
):
    # Shaped like the benchmark's cohort, topic-dense and long-logs logs. The
    # simulator ends each session at its last event, so no log has end rows.
    sessions = _class(profiles, spec, views, markings_range=markings_range)
    text = event_log_csv(sessions)
    if blank_lines:  # skipped, as the row loop skips them
        header, rows = text.split("\n", 1)
        text = f"{header}\n\n{rows}\n"
    assert ",end," not in text and len(text) > 8 * domain_model._CHUNK_CHARS
    monkeypatch.setattr(domain_model, "_parse_rows", _rows_refused)
    assert parse_event_log(text, spec) == sessions


class _Checked(Exception):
    pass


def test_the_empty_log_check_copies_nothing(monkeypatch):
    text = event_log_csv(_class(PROFILES, make_spec(n=40)))
    text = " " * 4 + text * (1_000_000 // len(text) + 1)
    assert len(text) >= 1_000_000

    def stop(text, spec):
        raise _Checked(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(domain_model, "_parse_columns", stop)
    tracemalloc.start()
    try:
        with pytest.raises(_Checked) as checked:
            parse_event_log(text, SPEC)
    finally:
        tracemalloc.stop()
    assert checked.value.args[0] < 4096
