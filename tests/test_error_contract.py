"""The error contract of ``parse_event_log`` and ``parse_questionnaire``,
pinned as digests.

Each mutation family turns valid simulated logs, or valid spec documents,
into malformed ones. The draws come from the package's SplitMix64, not from
hypothesis, so the inputs do not move with a hypothesis release. An input's
outcome is its sessions or its spec, or its error's type, message and
location. The test keeps one sha256 per family over the outcomes of its
inputs, so a failure names the family that moved. A change that moves an
outcome on purpose re-records the family's constant and says in CHANGES.md
which outcomes moved and why.

NUL is left out: the ``csv`` module of Python 3.10 rejects it where later
versions read it.

The first few inputs of each family also go through ``edumetrics compute``,
which must fail exactly where the library fails on the text the command reads.
"""

import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from itertools import islice

import pytest

from edumetrics import (
    EduMetricsError,
    ParseError,
    SplitMix64,
    ValidationError,
    event_log_csv,
    parse_event_log,
    parse_questionnaire,
    profile_from_name,
    serialize_questionnaire,
    simulate_class,
)
from edumetrics import cli, domain_model
from helpers import make_question, make_spec

SPEC = make_spec(n=10)  # two-digit question ids
PROFILES = ("assured", "guesser", "self-corrector", "disordered")
INPUTS_PER_FAMILY = 80
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
JUNK = [
    "", " ", "x", "-1", "0", "00", "1.5", "1e3", "0x1f", "11", "99", "nan", "view", "answer",
    "end", "VIEW", "z", "A", "ab", "é", "\t", "9" * 25, "a-0001",
]
SPELLINGS = [
    lambda f: f" {f}", lambda f: f"{f} ", lambda f: f"0{f}", lambda f: f"+{f}",
    lambda f: f"0_{f}", lambda f: f.translate(ARABIC_INDIC), lambda f: f.upper(),
    lambda f: f"\t{f}", lambda f: f"{f[:1]}_{f[1:]}",
]


def _base_lines(rng):
    """The lines of a valid log, header first: a few simulated students, some
    with an ``end`` row after their last event, their rows maybe interleaved."""
    sessions = []
    for group in range(rng.randint(1, 3)):
        name = rng.choice(PROFILES)
        profile = profile_from_name(name, rng.below(2**32))
        sessions += simulate_class(profile, SPEC, rng.randint(1, 2), id_prefix=f"{name[0]}{group}-")
    sessions = [
        replace(s, session_end_ms=s.session_end_ms + rng.randint(1, 5000)) if rng.below(3) == 0
        else s
        for s in sessions
    ]
    header, *rows = event_log_csv(sessions).splitlines()
    if rng.below(3) == 0:
        queues = {}
        for row in rows:
            queues.setdefault(row.split(",")[0], []).append(row)
        rows = []
        while queues:
            student = rng.choice(sorted(queues))
            rows.append(queues[student].pop(0))
            if not queues[student]:
                del queues[student]
    return [header, *rows]


def _data_index(rng, lines):
    return rng.randint(1, len(lines) - 1)


def _edit_fields(rng, lines, edit, times=(1, 2)):
    for _ in range(rng.randint(*times)):
        index = _data_index(rng, lines)
        fields = lines[index].split(",")
        edit(rng, fields)
        lines[index] = ",".join(fields)


def _student_rows(lines, student_id):
    return [i for i, line in enumerate(lines) if i and line.split(",")[0] == student_id]


def _last_event_ms(lines, student_id):
    stamps = [int(lines[i].split(",")[4]) for i in _student_rows(lines, student_id)
              if lines[i].split(",")[2] != "end"]
    return max(stamps, default=0)


def junk_field(rng, lines):
    def edit(rng, fields):
        fields[rng.below(len(fields))] = rng.choice(JUNK)
    _edit_fields(rng, lines, edit)
    return lines


def non_canonical_field(rng, lines):
    def edit(rng, fields):
        index = rng.below(len(fields))
        fields[index] = rng.choice(SPELLINGS)(fields[index])
    _edit_fields(rng, lines, edit, times=(1, 4))
    return lines


def added_field(rng, lines):
    def edit(rng, fields):
        fields.insert(rng.below(len(fields) + 1), rng.choice(JUNK))
    _edit_fields(rng, lines, edit, times=(1, 1))
    return lines


def dropped_field(rng, lines):
    def edit(rng, fields):
        del fields[rng.below(len(fields))]
    _edit_fields(rng, lines, edit, times=(1, 1))
    return lines


def blank_lines(rng, lines):
    for _ in range(rng.randint(1, 3)):
        # Position 0 puts a blank line before the header.
        lines.insert(rng.below(len(lines) + 1), rng.choice(["", "", "", " ", "\t"]))
    return lines


def _some_student(rng, lines):
    return lines[_data_index(rng, lines)].split(",")[0]


def early_end(rng, lines):
    """An end row placed before the student's first row, at a time around their last event."""
    student_id = _some_student(rng, lines)
    first = _student_rows(lines, student_id)[0]
    stamp = max(_last_event_ms(lines, student_id) + rng.randint(-50, 50), 0)
    lines.insert(rng.randint(1, first), f"{student_id},,end,,{stamp}")
    return lines


def duplicate_end(rng, lines):
    student_id = _some_student(rng, lines)
    last = _last_event_ms(lines, student_id)
    for _ in range(2):
        lines.insert(rng.randint(1, len(lines)), f"{student_id},,end,,{last + rng.below(100)}")
    return lines


def end_before_last_event(rng, lines):
    student_id = _some_student(rng, lines)
    last = _last_event_ms(lines, student_id)
    lines = [line for i, line in enumerate(lines)
             if not (i and line.split(",")[:3] == [student_id, "", "end"])]
    lines.insert(rng.randint(1, len(lines)), f"{student_id},,end,,{rng.below(max(last, 1))}")
    return lines


def quoted_fields(rng, lines):
    def edit(rng, fields):
        index = rng.below(len(fields))
        field = fields[index]
        fields[index] = rng.choice([
            f'"{field}"', f'"{field},"', f'",{field}"', f'"{field}\n"', f'"\n{field}"',
            f'"{field[:1]}\n{field[1:]}"', f'"{field}"""', f'"{field[:1]},{field[1:]}"',
            f'"{field}\r\n"',
        ])
    _edit_fields(rng, lines, edit, times=(1, 3))
    if rng.below(4) == 0:  # every field of every line quoted: a readable log
        lines = [",".join(f'"{f}"' for f in line.split(",")) for line in lines]
    return lines


def line_ends(rng, lines):
    """CR or CRLF line ends, for the whole log or line by line."""
    if rng.below(2):
        eol = rng.choice(["\r", "\r\n"])
        return eol.join(lines) + rng.choice([eol, ""])
    return "".join(line + rng.choice(["\n", "\r", "\r\n"]) for line in lines)


def header_damage(rng, lines):
    names = list(domain_model.EVENT_CSV_HEADER)
    damage = rng.below(9)
    if damage == 0:
        del names[rng.below(len(names))]
    elif damage == 1:
        i, j = rng.below(len(names)), rng.below(len(names))
        names[i], names[j] = names[j], names[i]
    elif damage == 2:
        i = rng.below(len(names))
        names[i] = names[i].upper()
    elif damage == 3:
        i = rng.below(len(names))
        names[i] = rng.choice([f" {names[i]}", f"{names[i]} "])
    elif damage == 4:  # quoted, the header csv reads as the exact one
        names = [f'"{name}"' for name in names]
    elif damage == 5:
        names.append(rng.choice(["", "extra"]))
    elif damage == 6:
        return lines[1:]
    elif damage == 7:
        return [lines[0], *lines]
    lines[0] = ",".join(names)
    if damage == 8 or rng.below(4) == 0:
        lines[0] = "\ufeff" + lines[0]
    return lines


def line_order(rng, lines):
    """A swapped, moved or truncated line; the header may move too."""
    damage = rng.below(3)
    if damage == 0:
        i, j = _data_index(rng, lines), _data_index(rng, lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif damage == 1:
        line = lines.pop(rng.below(len(lines)))
        lines.insert(rng.below(len(lines) + 1), line)
    else:
        text = "\n".join(lines) + "\n"
        return text[: rng.randint(1, len(text) - 1)]
    return lines


FAMILIES = {
    family.__name__.replace("_", "-"): family
    for family in (
        junk_field, non_canonical_field, added_field, dropped_field, blank_lines, early_end,
        duplicate_end, end_before_last_event, quoted_fields, line_ends, header_damage,
        line_order,
    )
}

# sha256 of each family's outcomes, in input order, at the default slice size.
OUTCOME_DIGESTS = {
    "junk-field": "6a4c82f4082f4442d7571f94c5b56b9ed57dfcc1c40f40487447d2d7e11a1389",
    "non-canonical-field": "f289db0a53d57e39ef4551b8a5853e4affd74846186899f15614b7666f5a5529",
    "added-field": "36a73cb5f72fb40364d606907c2a0be438e2702ee4994ce52de9a2c065ee9236",
    "dropped-field": "34aa625b34875ea35c7706ebb7f306317441b7e1db3d61a292cf16d71808f26f",
    "blank-lines": "b6da8256c2b2c06742ce6a168a2a7f481092fe46759ca19a56059491c9d087df",
    "early-end": "459ccf512f42b0253299a9a99e1a9b6c4d19aca8703a5931399be8eacc96e6cb",
    "duplicate-end": "902719997406a758c4ce69e4b240cd20d2df7499aaba4bb49e58e515646ecb7f",
    "end-before-last-event": "f629678891182068a110677189dc5a5987e85b58d6208a20cca2b24f1ed0a168",
    "quoted-fields": "d804e9f43fe118beea02966d1812b327d85b4e1bb7162810a0d4f72efe6f6697",
    "line-ends": "ca4445fbae613314b02694f28e79a724b3c994b65bf6d952090b35dd5adebc9d",
    "header-damage": "c8c5f94d05b2acfd0ca485badb31cb06a5fb1fa6f74cdf654de82d35816e69fa",
    "line-order": "008d2c24981222b1de2bbbb2837b3ef85bbd9f5d1dcf008984f3b6c8a12e331c",
}


def inputs(name):
    rng = SplitMix64(sorted(FAMILIES).index(name) + 1)
    for _ in range(INPUTS_PER_FAMILY):
        mutated = FAMILIES[name](rng, _base_lines(rng))
        yield mutated if isinstance(mutated, str) else "\n".join(mutated) + "\n"


def outcome(text):
    """One line: the parsed sessions, or the error's type, message, field, line and question id."""
    try:
        sessions = parse_event_log(text, SPEC)
    except (ParseError, ValidationError) as err:
        fields = (getattr(err, "field", None), err.line, getattr(err, "question_id", None))
        return repr((type(err).__name__, str(err), *fields))
    return repr([
        (s.student_id, s.session_end_ms,
         [(e.question_id, e.kind.value, e.option_id, e.timestamp_ms) for e in s.events])
        for s in sessions
    ])


@pytest.mark.parametrize("chunk", [domain_model._CHUNK_CHARS, 64], ids=["default-slices", "small-slices"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_malformed_log_outcomes_match_recorded_digests(family, chunk, monkeypatch):
    # The outcome of a log does not depend on how it is sliced, so both slice
    # sizes must give the one recorded digest.
    monkeypatch.setattr(domain_model, "_CHUNK_CHARS", chunk)
    outcomes = "\n".join(map(outcome, inputs(family)))
    assert hashlib.sha256(outcomes.encode()).hexdigest() == OUTCOME_DIGESTS[family]


# The spec half: malformed questionnaire documents.

SUBJECTS = ["Algebra", "Geometry", "%s \u00e9"]
OTHER_TYPES = [None, "3", "", 1.5, -2.0, [], [3], {}, {"a": 1}]
RAW_NUMBERS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, "-" + "9" * 400,
    "0", "-0.0", "-1", "1e-400", "5e-324", "1.0",
]
RAW = "@raw@"  # stands in for a value written into the text as a bare literal


def _base_spec(rng):
    """A valid spec document: 1 to 5 questions with three subjects, up to three
    topics each and varied indices and times, some options without
    ``lu_deviation``."""
    questions = [
        make_question(
            qid, subject=rng.choice(SUBJECTS),
            topics=tuple(rng.randint(1, 4) for _ in range(rng.below(4))),
            qdi=rng.choice([1, 3, 5]), cdi=rng.choice([1, 3, 5]), tdi=rng.choice([1, 3, 5]),
            expected_time_s=rng.choice([30.0, 90.5, 120.0, 600.0]),
        )
        for qid in range(1, rng.randint(1, 5) + 1)
    ]
    doc = json.loads(serialize_questionnaire(make_spec(questions)))
    for question in doc["questions"]:
        for option in question["options"]:
            if rng.below(4) == 0:
                del option["lu_deviation"]
    return doc


def _some_object(rng, doc):
    """The document, one of its questions or one of their options, each level
    drawn as often."""
    level = rng.below(3)
    if level == 0:
        return doc
    question = rng.choice(doc["questions"])
    return question if level == 1 else rng.choice(question["options"])


def missing_key(rng, doc):
    mapping = _some_object(rng, doc)
    del mapping[rng.choice(sorted(mapping))]
    return doc


def wrong_type(rng, doc):
    """A bool in place of an int, or a value of some other type, at any key or topic."""
    mapping = _some_object(rng, doc)
    key = rng.choice(sorted(mapping))
    if key == "topic_ids" and mapping[key] and rng.below(2):
        mapping, key = mapping[key], rng.below(len(mapping[key]))
    if isinstance(mapping[key], int) and rng.below(2):
        mapping[key] = rng.choice([True, False])
    else:
        mapping[key] = rng.choice(OTHER_TYPES + [True])
    return doc


def non_finite_number(rng, doc):
    """A NaN, infinite, overflowing or edge literal at a float key, or at any numeric one."""
    if rng.below(3):
        mapping = doc if rng.below(3) == 0 else rng.choice(doc["questions"])
        mapping["max_total_time_s" if mapping is doc else "expected_time_s"] = RAW
        return doc
    mapping = _some_object(rng, doc)
    numeric = sorted(k for k, v in mapping.items() if isinstance(v, (int, float)))
    mapping[rng.choice(numeric)] = RAW
    return doc


def duplicate_question_id(rng, doc):
    questions = doc["questions"]
    source = rng.choice(questions)
    if rng.below(2):
        questions.insert(rng.below(len(questions) + 1), json.loads(json.dumps(source)))
    else:
        rng.choice(questions)["question_id"] = source["question_id"]
    return doc


def duplicate_topic_id(rng, doc):
    topics = rng.choice(doc["questions"])["topic_ids"]
    topic = rng.choice(topics) if topics and rng.below(2) else rng.randint(1, 4)
    for _ in range(1 if topic in topics else 2):
        topics.insert(rng.below(len(topics) + 1), topic)
    return doc


def bad_option_set(rng, doc):
    options = rng.choice(doc["questions"])["options"]
    damage = rng.below(7)
    if damage == 0:
        del options[rng.below(len(options))]
    elif damage == 1:
        options.insert(rng.below(len(options) + 1), dict(rng.choice(options)))
    elif damage == 2:
        i, j = rng.below(len(options)), rng.below(len(options))
        options[i], options[j] = options[j], options[i]
    elif damage == 3:
        rng.choice(options)["option_id"] = rng.choice(["f", "A", "", "ab", " a", "1"])
    elif damage == 4:
        rng.choice(options)["ws_weight"] = rng.choice([0, 1, 4, 5, -1])
    elif damage == 5:
        rng.choice(options)["lu_deviation"] = rng.choice([0, 1, 5, 6, -2])
    else:
        options.clear()
    return doc


def non_object_question(rng, doc):
    """A question, an option or the whole document that is not a JSON object."""
    other = rng.choice([[], [1], "q", 1, None, True, [{"question_id": 1}]])
    target = rng.below(3)
    if target == 0:
        questions = doc["questions"]
        questions[rng.below(len(questions))] = other
    elif target == 1:
        options = rng.choice(doc["questions"])["options"]
        options[rng.below(len(options))] = other
    else:
        return other
    return doc


SPEC_FAMILIES = {
    family.__name__.replace("_", "-"): family
    for family in (
        missing_key, wrong_type, non_finite_number, duplicate_question_id, duplicate_topic_id,
        bad_option_set, non_object_question,
    )
}

# sha256 of each spec family's outcomes, in input order.
SPEC_OUTCOME_DIGESTS = {
    "bad-option-set": "db88c34551e16476d80e350ead03870dc7bad44be5ece88468332e8467271e22",
    "duplicate-question-id": "bb1a04202399512d3b788143ab71ebad0c7f501a307e67ba54b4d7ce7e2fbe69",
    "duplicate-topic-id": "2e80cc780a95db4f5e0885cb1b1355285d9814f02d3f9d70102bcceb76626faf",
    "missing-key": "218f814bc5581f7b2cea27dd097554075795044c10e398f35408c6e006b09bc0",
    "non-finite-number": "544423260ddf48d141c28a11633079c45fa6fe1eb1f14e8a1055e8ed705dedad",
    "non-object-question": "92caabc724d4c4dc9d918bee02d88655a22f465a685311bd443f86872c05c8ba",
    "wrong-type": "4e37b506fb6d1f41e23895d1e5517840ad44049984b4c586556df868abbec4cc",
}


def spec_inputs(name):
    """(text, allow_any_option_count) of each input of the family."""
    rng = SplitMix64(101 + sorted(SPEC_FAMILIES).index(name))
    for _ in range(INPUTS_PER_FAMILY):
        text = json.dumps(SPEC_FAMILIES[name](rng, _base_spec(rng)))
        yield text.replace(json.dumps(RAW), rng.choice(RAW_NUMBERS)), rng.below(4) == 0


def spec_outcome(text, allow_any_option_count):
    """One line: the parsed spec written back, or the error's type, message and location."""
    try:
        spec = parse_questionnaire(text, allow_any_option_count=allow_any_option_count)
    except (ParseError, ValidationError) as err:
        where = [getattr(err, name, None) for name in ("field", "line", "column", "question_id")]
        return repr((type(err).__name__, str(err), *where))
    return repr(serialize_questionnaire(spec))


@pytest.mark.parametrize("family", sorted(SPEC_FAMILIES))
def test_malformed_spec_outcomes_match_recorded_digests(family):
    outcomes = "\n".join(spec_outcome(*case) for case in spec_inputs(family))
    assert hashlib.sha256(outcomes.encode()).hexdigest() == SPEC_OUTCOME_DIGESTS[family]


# The compute half: the first inputs of each family through ``edumetrics compute``.

COMPUTE_INPUTS = 3
HEADER_ONLY = ",".join(domain_model.EVENT_CSV_HEADER) + "\n"


def _library_stderr(spec_path, events_path, allow_any_option_count):
    """The stderr ``compute`` must print: nothing, or the first error that the
    library raises on the text as the command reads it (a leading BOM dropped,
    every CR and CRLF read as LF), after the path of the file."""
    path = spec_path
    try:
        text = spec_path.read_text(encoding="utf-8-sig")
        spec = parse_questionnaire(text, allow_any_option_count=allow_any_option_count)
        path = events_path
        parse_event_log(events_path.read_text(encoding="utf-8-sig"), spec)
    except EduMetricsError as err:
        return f"error: {path}: {err}\n"
    return ""


def assert_compute_matches_the_library(tmp_path, capsys, spec_text, events_text, allow_any):
    spec, events = tmp_path / "spec.json", tmp_path / "events.csv"
    spec.write_bytes(spec_text.encode("utf-8"))
    events.write_bytes(events_text.encode("utf-8"))
    argv = ["compute", "--spec", str(spec), "--events", str(events), "--out", str(tmp_path / "out")]
    code = cli.main(argv + ["--allow-any-option-count"] * allow_any)
    expected = _library_stderr(spec, events, allow_any)
    assert (code, capsys.readouterr().err) == (1 if expected else 0, expected)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compute_reports_a_malformed_log_as_the_library(family, tmp_path, capsys):
    spec_text = serialize_questionnaire(SPEC)
    for text in islice(inputs(family), COMPUTE_INPUTS):
        assert_compute_matches_the_library(tmp_path, capsys, spec_text, text, False)


@pytest.mark.parametrize("family", sorted(SPEC_FAMILIES))
def test_compute_reports_a_malformed_spec_as_the_library(family, tmp_path, capsys):
    for text, allow_any in islice(spec_inputs(family), COMPUTE_INPUTS):
        assert_compute_matches_the_library(tmp_path, capsys, text, HEADER_ONLY, allow_any)


def test_command_reports_a_malformed_log_in_one_line(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(serialize_questionnaire(SPEC), encoding="utf-8")
    events = tmp_path / "events.csv"
    events.write_text(next(inputs("junk-field")), encoding="utf-8", newline="")
    result = subprocess.run(
        [sys.executable, "-m", "edumetrics", "compute", "--spec", str(spec),
         "--events", str(events), "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
