"""``parse_event_log`` builds the sessions of every readable log in one
column check, and reads a log with its row loop only to raise the error of a
log that check refuses. These tests pin that the check refuses exactly the
logs in which the row loop finds an error, that an irregular log parses as
its plain rewrite, that the library's own logs never reach the row loop, and
that the empty-log check copies nothing."""

import csv
import io
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
from test_event_log_properties import ADMITTED_IDS, SPEC, sessions_of
from test_parse_error_locations import ROW_FAULTS


def _set(index, change):
    def spell(fields):
        fields[index] = change(fields[index])
    return spell


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

# Spellings that only the csv reader or a second lookup of the question id
# reads, and other spellings that Python's int() reads; each changes the
# fields of one row in place.
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
def texts(draw, faults=True):
    """An event log with spellings at random rows, and maybe (with ``faults``)
    one fault in its second half, so that the column check reads batches
    before it."""
    # Split on LF only: an admitted id may hold the other line breaks of str.splitlines.
    header, *rows = event_log_csv(draw(sessions_of(ADMITTED_IDS)))[:-1].split("\n")
    rows = [row.split(",") for row in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        fields = draw(st.sampled_from(rows))
        SPELLINGS[draw(st.sampled_from(sorted(SPELLINGS)))](fields)
    fault = draw(st.sampled_from([None, *sorted(ROW_FAULTS)])) if faults else None
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
    """A column check that refuses every log."""
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


def plain_rewrite(text):
    """``text`` as a plain log: the exact header, LF line ends, no quoting or
    blank rows, and question ids and timestamps spelled as ``str(int(...))``."""
    _, *rows = filter(None, csv.reader(io.StringIO(text, newline=None)))
    lines = [",".join([s, q and str(int(q)), e, o, str(int(t))]) for s, q, e, o, t in rows]
    rewrite = "\n".join([HEADER, *lines]) + "\n"
    assert '"' not in rewrite and "\r" not in rewrite
    return rewrite


@settings(max_examples=400, deadline=None, database=None)
@example(text=f"{HEADER}\ns1,1,view,,{'5':0>40}\n", chunk=64, field_limit=SMALL_FIELD_LIMIT)
@example(text=f"{HEADER}\ns1,1,view,,{'5':0>32}\n", chunk=64, field_limit=SMALL_FIELD_LIMIT)
@example(text=f"{HEADER}\ns1,1,view,,5\ns1,1,view,,\r6\n", chunk=64, field_limit=None)
@example(text=f"{HEADER}\ns1,,end,,5\ns1,1,view,,3\ns1,,end,,6\n", chunk=1, field_limit=None)
@example(text=f"{HEADER}\ns1,1,view,,7\ns1,,end,,6\n", chunk=1, field_limit=None)
# Rows that a lookup in the column check's table refuses and the row loop
# checks against the spec: an option question 3 lacks, a view with an option,
# a kind in capitals, an end row with a blank question id, an empty option.
@example(text=f"{HEADER}\ns1,1,view,,5\ns1,03,answer,c,6\n", chunk=64, field_limit=None)
@example(text=f"{HEADER}\ns1,1,view,,5\ns1, 2,view,a,6\n", chunk=64, field_limit=None)
@example(text=f"{HEADER}\ns1,1,view,,5\ns1,1,VIEW,,6\n", chunk=1, field_limit=None)
@example(text=f"{HEADER}\ns1,1,view,,5\ns1, ,end,,6\n", chunk=1, field_limit=None)
@example(text=f"{HEADER}\ns1,1,view,,5\ns1,1,answer,,6\n", chunk=64, field_limit=None)
@given(
    text=texts(),
    chunk=st.sampled_from([1, 7, 64, domain_model._CHUNK_CHARS]),
    field_limit=st.sampled_from([None, SMALL_FIELD_LIMIT]),
)
def test_column_path_and_row_loop_agree(text, chunk, field_limit):
    # The column check refuses a log exactly when the row loop raises on it,
    # whatever the slice and batch size and the csv field limit.
    default_limit = csv.field_size_limit()
    try:
        if field_limit is not None:
            csv.field_size_limit(field_limit)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(domain_model, "_CHUNK_CHARS", chunk)
            refused = domain_model._parse_columns(text, SPEC) is None
            try:
                domain_model._parse_rows(text, SPEC)
            except (ParseError, ValidationError):
                raised = True
            else:
                raised = False
    finally:
        csv.field_size_limit(default_limit)
    assert refused == raised


@settings(max_examples=300, deadline=None, database=None)
@given(text=texts(faults=False), chunk=st.sampled_from([1, 7, 64, domain_model._CHUNK_CHARS]))
def test_irregular_logs_parse_as_their_plain_rewrite(text, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(domain_model, "_CHUNK_CHARS", chunk)
        parsed = outcome(text)
    if type(parsed) is list:
        assert parsed == parse_event_log(plain_rewrite(text), SPEC)


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


def _with_end_rows(sessions):
    """Every other session ends a second after its last event, so that
    ``event_log_csv`` writes an ``end`` row for it."""
    return [
        replace(s, session_end_ms=s.session_end_ms + 1000) if i % 2 else s
        for i, s in enumerate(sessions)
    ]


def _padded_ids(text):
    """``text`` with every question id zero-padded: 3 becomes 03."""
    header, *rows = text[:-1].split("\n")
    rows = [row.split(",") for row in rows]
    return "\n".join([header, *(",".join([s, q and f"0{q}", *rest]) for s, q, *rest in rows)]) + "\n"


@pytest.mark.parametrize(
    "spec, views, markings_range, profiles, variant",
    [
        (make_spec(n=40), True, (2, 5), PROFILES, None),
        (WIDE_SPEC, True, (2, 5), PROFILES, None),
        (make_spec(n=40), False, (8, 16), ["self-corrector"], None),
        (make_spec(n=40), True, (2, 5), PROFILES, "blank-lines"),
        (make_spec(n=40), True, (2, 5), PROFILES, "end-rows"),
        (make_spec(n=40), True, (2, 5), PROFILES, "padded-ids"),
    ],
    ids=[
        "four-profiles-with-views", "many-topics-with-views", "self-correctors-without-views",
        "four-profiles-with-blank-lines", "four-profiles-with-end-rows",
        "four-profiles-with-padded-ids",
    ],
)
def test_simulated_logs_parse_whole_on_the_column_path(
    spec, views, markings_range, profiles, variant, monkeypatch
):
    # Shaped like the benchmark's cohort, topic-dense and long-logs logs. The
    # simulator ends each session at its last event, so only the end-rows
    # variant has end rows; event_log_csv writes them as the library does.
    sessions = _class(profiles, spec, views, markings_range=markings_range)
    if variant == "end-rows":
        sessions = _with_end_rows(sessions)
    text = event_log_csv(sessions)
    if variant == "blank-lines":  # skipped, as csv skips them
        header, rows = text.split("\n", 1)
        text = f"{header}\n\n{rows}\n"
    elif variant == "padded-ids":
        text = _padded_ids(text)
    assert (",end," in text) == (variant == "end-rows")
    assert len(text) > 8 * domain_model._CHUNK_CHARS
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
