"""Output checker that does not import edumetrics.

It re-derives the paper's per-question and per-subset formulas in plain
Python from the raw spec JSON and event CSV rows, following the srt-mode
rule the package README documents, and checks a report directory
written by ``edumetrics compute`` against them and against properties
every report must have. ``check_reports`` returns a list of problems;
an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

TOLERANCE = 1e-4 + 1e-9  # reports carry four decimals
SAMPLE_SIZE = 16
METRICS = ("ts", "ws", "ad", "qucl")


@dataclass(frozen=True)
class Question:
    qid: int
    subject: str
    topics: tuple[int, ...]
    qdi: int
    cdi: int
    expected_s: float
    weights: dict[str, int]


@dataclass
class Student:
    """Per-question facts re-derived from one student's raw rows."""

    sid: str
    markings: dict[int, int] = field(default_factory=dict)
    weight: dict[int, int] = field(default_factory=dict)
    srt_s: dict[int, float] = field(default_factory=dict)
    answers: list[int] = field(default_factory=list)  # question ids, time order

    @property
    def total_markings(self) -> int:
        return sum(self.markings.values())


def load_spec(path: Path) -> list[Question]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [
        Question(
            qid=q["question_id"],
            subject=q["subject"],
            topics=tuple(sorted(set(q["topic_ids"]))),
            qdi=q["qdi"],
            cdi=q["cdi"],
            expected_s=float(q["expected_time_s"]),
            weights={o["option_id"]: o["ws_weight"] for o in q["options"]},
        )
        for q in doc["questions"]
    ]


def subsets(spec: list[Question]) -> list[tuple[str, object, tuple[int, ...]]]:
    """(scope, element, question ids): the whole questionnaire, each
    subject in order of first appearance, each topic ascending."""
    rows = [("questionnaire", None, tuple(q.qid for q in spec))]
    subjects: dict[str, list[int]] = {}
    topics: dict[int, list[int]] = defaultdict(list)
    for q in spec:
        subjects.setdefault(q.subject, []).append(q.qid)
        for t in q.topics:
            topics[t].append(q.qid)
    rows += [("subject", s, tuple(ids)) for s, ids in subjects.items()]
    rows += [("topic", t, tuple(topics[t])) for t in sorted(topics)]
    return rows


def derive_students(spec: list[Question], events_path: Path) -> list[Student]:
    """Re-derive every student's facts from the raw event CSV.

    Rows are grouped by student in order of first appearance and stably
    sorted by timestamp. As the package README says, ``auto`` time
    attribution uses view intervals when the log holds any view row and
    answer intervals otherwise.
    """
    rows: dict[str, list[tuple[int, str, int, str]]] = {}
    ends: dict[str, int] = {}
    with events_path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for sid, qid, kind, option, ts in reader:
            if kind == "end":
                ends[sid] = int(ts)
                rows.setdefault(sid, [])
            else:
                rows.setdefault(sid, []).append((int(ts), kind, int(qid) if qid else 0, option))
    view_mode = any(kind == "view" for events in rows.values() for _, kind, _, _ in events)

    students = []
    for sid, events in rows.items():
        events.sort(key=lambda e: e[0])
        student = Student(sid)
        srt_ms: dict[int, int] = defaultdict(int)
        final: dict[int, str] = {}
        answers = [e for e in events if e[1] == "answer"]
        for _, _, qid, option in answers:
            student.markings[qid] = student.markings.get(qid, 0) + 1
            final[qid] = option
            student.answers.append(qid)
        end = ends.get(sid, events[-1][0] if events else 0)
        if view_mode:
            for index, (ts, _, qid, _) in enumerate(events):
                until = events[index + 1][0] if index + 1 < len(events) else end
                srt_ms[qid] += until - ts
        elif answers:
            srt_ms[answers[0][2]] += answers[0][0] - events[0][0]
            for previous, current in zip(answers, answers[1:]):
                srt_ms[current[2]] += current[0] - previous[0]
        for q in spec:
            student.markings.setdefault(q.qid, 0)
            student.weight[q.qid] = q.weights[final[q.qid]] if q.qid in final else 0
            student.srt_s[q.qid] = srt_ms.get(q.qid, 0) / 1000.0
        students.append(student)
    return students


def qcl(question: Question, weight: int, srt_s: float) -> float:
    """Time-sensitive comprehension of one question."""
    t = question.expected_s
    ecl = question.qdi * question.cdi * weight
    mcl = question.qdi * question.cdi * 4
    if srt_s <= t / 4:
        return ecl / (mcl * 4)
    if srt_s <= t:
        return ecl / mcl
    return ecl / (mcl + (srt_s - t) / t)


def disorder(answers: list[int], keep: set[int] | None = None) -> float:
    """Binary entropy of in-order versus out-of-order answer transitions."""
    ids = answers if keep is None else [q for q in answers if q in keep]
    if len(ids) < 2:
        return 0.0
    in_order = sum(1 for a, b in zip(ids, ids[1:]) if a <= b)
    out_of_order = len(ids) - 1 - in_order
    if in_order == 0 or out_of_order == 0:
        return 0.0
    p1, p2 = in_order / (len(ids) - 1), out_of_order / (len(ids) - 1)
    return -(p1 * math.log2(p1) + p2 * math.log2(p2))


def question_rows(spec: list[Question], s: Student) -> list[dict]:
    return [
        {
            "question_id": q.qid,
            "markings": s.markings[q.qid],
            "doubt": s.markings[q.qid] - 1,
            "weight": s.weight[q.qid],
            "srt_s": s.srt_s[q.qid],
            "qcl": qcl(q, s.weight[q.qid], s.srt_s[q.qid]),
        }
        for q in spec
    ]


def subset_rows(spec: list[Question], s: Student) -> list[dict]:
    by_id = {q.qid: q for q in spec}
    rows = []
    for scope, element, ids in subsets(spec):
        n = len(ids)
        hits = sum(1 for q in ids if s.weight[q] == 4)
        markings = sum(s.markings[q] for q in ids)
        ts = 10.0 * hits / n
        ws = 10.0 * sum(s.weight[q] for q in ids) / (4 * n)
        ad = hits / markings if markings else 0.0
        qcls = sum(qcl(by_id[q], s.weight[q], s.srt_s[q]) for q in ids)
        rows.append(
            {
                "scope": scope,
                "element": element,
                "ts": ts,
                "ws": ws,
                "ad": ad,
                "srt_s": sum(s.srt_s[q] for q in ids),
                "disorder": disorder(s.answers, set(ids)),
                "qucl": qcls / (n + 1.0 - ad),
                "priority": (10.0 - ts) * ws / 10.0,
            }
        )
    return rows


def sample_positions(count: int) -> list[int]:
    """Positions in the log of the fixed student sample, spread evenly."""
    if count <= SAMPLE_SIZE:
        return list(range(count))
    return sorted({round(i * (count - 1) / (SAMPLE_SIZE - 1)) for i in range(SAMPLE_SIZE)})


@dataclass
class Expectation:
    """Everything the checker derives once per workload input."""

    spec: list[Question]
    students: list[Student]
    profiles: dict[str, str]
    output_format: str
    sample: dict[str, tuple[list[dict], list[dict]]]  # sid -> (question rows, subset rows)
    overall_disorder: list[float]


def expect(spec_path: Path, events_path: Path, profiles: dict[str, str],
           output_format: str) -> Expectation:
    spec = load_spec(spec_path)
    students = derive_students(spec, events_path)
    sample = {
        students[i].sid: (question_rows(spec, students[i]), subset_rows(spec, students[i]))
        for i in sample_positions(len(students))
    }
    return Expectation(
        spec=spec,
        students=students,
        profiles=profiles,
        output_format=output_format,
        sample=sample,
        overall_disorder=[disorder(s.answers) for s in students],
    )


def sha256s(out_dir: Path) -> dict[str, str]:
    """Digest of every file under the report directory, by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


class Problems(list):
    def close(self, what: str, got, want) -> None:
        if not isinstance(got, (int, float)) or abs(got - want) > TOLERANCE:
            self.append(f"{what}: got {got!r}, want {want:.6f}")

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.append(f"{what}: got {got!r}, want {want!r}")


def _compare_rows(problems: Problems, where: str, got: list[dict], want: list[dict]) -> None:
    if len(got) != len(want):
        problems.append(f"{where}: {len(got)} rows, want {len(want)}")
        return
    for index, (g, w) in enumerate(zip(got, want)):
        for key, value in w.items():
            what = f"{where}[{index}].{key}"
            if isinstance(value, float):
                problems.close(what, g.get(key), value)
            else:
                problems.equal(what, g.get(key), value)


def _read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _numeric(row: dict) -> dict:
    out = {}
    for key, value in row.items():
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out


def check_reports(exp: Expectation, out_dir: Path) -> list[str]:
    """Problems found in the report directory; empty when it is correct."""
    try:
        return _check_reports(exp, out_dir)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc!r}"]
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"report lacks an expected field or has the wrong shape: {exc!r}"]


def _check_reports(exp: Expectation, out_dir: Path) -> Problems:
    problems = Problems()
    reports = json.loads((out_dir / "students.json").read_text(encoding="utf-8"))
    summary = json.loads((out_dir / "class.json").read_text(encoding="utf-8"))
    histogram = _read_csv(out_dir / "plotdata" / "groups_histogram.csv")
    scatter = _read_csv(out_dir / "plotdata" / "ad_vs_qucl.csv")
    n = len(exp.students)
    ids = [s.sid for s in exp.students]
    problems.equal("students.json ids", [r["student_id"] for r in reports], ids)
    problems.equal("class.json student_count", summary.get("student_count"), n)
    if problems:
        return problems
    by_id = {r["student_id"]: r for r in reports}

    for sid, (want_questions, want_subsets) in exp.sample.items():
        report = by_id[sid]
        _compare_rows(problems, f"{sid} questions", report["questions"], want_questions)
        _compare_rows(problems, f"{sid} subsets", report["subsets"], want_subsets)

    _check_profiles(problems, exp, reports)
    _check_class(problems, exp, reports, summary, histogram)
    problems.equal("ad_vs_qucl.csv ids", [row["student_id"] for row in scatter], ids)
    if exp.output_format == "csv":
        _check_flat_csv(problems, exp, out_dir)
    return problems


def _check_profiles(problems: Problems, exp: Expectation, reports: list[dict]) -> None:
    """The outcomes each simulator profile forces."""
    markings = {s.sid: s.total_markings for s in exp.students}
    for report in reports:
        sid = report["student_id"]
        profile = exp.profiles[sid]
        overall = report["subsets"][0]
        if profile in ("assured", "disordered", "self-corrector"):
            problems.close(f"{sid} ts", overall["ts"], 10.0)
        if profile == "assured":
            problems.close(f"{sid} ws", overall["ws"], 10.0)
            problems.close(f"{sid} ad", overall["ad"], 1.0)
            problems.close(f"{sid} disorder", overall["disorder"], 0.0)
            for q in report["questions"]:
                problems.equal(f"{sid} q{q['question_id']} doubt", q["doubt"], 0)
        elif profile == "disordered":
            problems.close(f"{sid} ad", overall["ad"], 1.0)
            if not overall["disorder"] > 0:
                problems.append(f"{sid}: disordered student has disorder {overall['disorder']}")
        elif profile == "self-corrector":
            problems.close(f"{sid} ad", overall["ad"], len(exp.spec) / markings[sid])
        elif profile == "guesser":
            for q in report["questions"]:
                problems.close(f"{sid} q{q['question_id']} qcl", q["qcl"], q["weight"] / 16)


def _check_class(problems, exp, reports, summary, histogram) -> None:
    n = len(exp.students)
    ids = [s.sid for s in exp.students]
    roster = summary["quadrants"]
    listed = [sid for label in sorted(roster) for sid in roster[label]]
    problems.equal("quadrant roster", sorted(listed), sorted(ids))
    for report in reports:
        if report["student_id"] not in roster.get(report["quadrant"], ()):
            problems.append(f"{report['student_id']} missing from roster {report['quadrant']}")
            break

    k = math.floor(math.sqrt(n) + 0.5)
    problems.equal("grouping k", summary["grouping"]["k"], k)
    for split in summary["approval_splits"]:
        problems.equal(f"approval split {split['metric']}", split["at_or_above"] + split["below"], n)
    for metric in METRICS:
        rows = [row for row in histogram if row["metric"] == metric]
        problems.equal(f"histogram {metric} groups", [int(r["group"]) for r in rows],
                       list(range(1, k + 1)))
        problems.equal(f"histogram {metric} count", sum(int(r["count"]) for r in rows), n)

    scopes = subsets(exp.spec)
    for key, label, scope in (("subject_priorities", "subject", "subject"),
                              ("topic_priorities", "topic", "topic")):
        ranking = summary[key]
        problems.equal(f"{key} elements", sorted(r[label] for r in ranking),
                       sorted(e for s, e, _ in scopes if s == scope))
        values = [r["normalized_priority"] for r in ranking]
        if any(not 0.0 <= v <= 1.0 for v in values) or values != sorted(values, reverse=True):
            problems.append(f"{key}: values not in [0, 1] or not descending: {values}")
        problems.equal(f"{key} ranks", [r["rank"] for r in ranking], list(range(1, len(ranking) + 1)))

    rows = summary["srt_vs_expected"]
    problems.equal("srt_vs_expected questions", [r["question_id"] for r in rows],
                   [q.qid for q in exp.spec])
    for row, q in zip(rows, exp.spec):
        mean = sum(s.srt_s[q.qid] for s in exp.students) / n
        problems.close(f"srt_vs_expected q{q.qid} mean", row["mean_srt_s"], mean)
        problems.equal(f"srt_vs_expected q{q.qid} within", row["within_expected"],
                       mean <= q.expected_s)
    general = summary["disorder"][-1]
    problems.equal("disorder General row", general["subject"], "General")
    problems.close("disorder General average", general["average"], sum(exp.overall_disorder) / n)
    problems.close("disorder General positive", general["percent_positive"],
                   sum(1 for d in exp.overall_disorder if d > 0) / n)


def _check_flat_csv(problems: Problems, exp: Expectation, out_dir: Path) -> None:
    """The sampled students' rows of students.csv and questions.csv."""
    students = _read_csv(out_dir / "students.csv")
    questions = _read_csv(out_dir / "questions.csv")
    n = len(exp.students)
    problems.equal("students.csv rows", len(students), n * len(subsets(exp.spec)))
    problems.equal("questions.csv rows", len(questions), n * len(exp.spec))
    sampled_questions = defaultdict(list)
    sampled_subsets = defaultdict(list)
    for row in questions:
        if row["student_id"] in exp.sample:
            sampled_questions[row["student_id"]].append(_numeric(row))
    for row in students:
        if row["student_id"] in exp.sample:
            row = _numeric(row)
            row["element"] = None if row["element"] == "" else row["element"]
            sampled_subsets[row["student_id"]].append(row)
    for sid, (want_questions, want_subsets) in exp.sample.items():
        _compare_rows(problems, f"questions.csv {sid}", sampled_questions[sid], want_questions)
        _compare_rows(problems, f"students.csv {sid}", sampled_subsets[sid], want_subsets)
