"""Fixed reference work that measures how fast the host runs right now.

Usage: python3 -I reference.py OUT_DIR

It does the same work on every call, independent of the seed and of
``src/``: it writes an event-log-like CSV of 240 students, parses it
back into frozen dataclasses, groups the events per student and
question, derives per-question and per-subset rows and writes them as
an indented JSON file and a CSV file under OUT_DIR, the same kinds of
work an ``edumetrics compute`` run does, without edumetrics. ``run.py``
runs it in a fresh interpreter just before each timed compute child and
divides the child's wall time by its wall time, so that the host's CPU
speed, which drifts by tens of percent over minutes on a shared host,
cancels out of the end-to-end metrics.
"""

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

STUDENTS = 240
QUESTIONS = 40


@dataclass(frozen=True)
class Event:
    student: str
    question: int
    kind: str
    option: str
    t: float


def event_csv() -> str:
    x = 12345
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["student_id", "question_id", "kind", "option_id", "timestamp_s"])
    for s in range(STUDENTS):
        t = 0.0
        for q in range(1, QUESTIONS + 1):
            for _ in range(1 + x % 3):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                t += (x % 9000) / 100.0
                writer.writerow([f"student-{s:04d}", q, "answer" if x & 4 else "view",
                                 "abcde"[x % 5], f"{t:.3f}"])
    return buf.getvalue()


def student_report(student: str, events: list[Event]) -> dict:
    events.sort(key=lambda e: (e.t, e.question))
    per_question: dict[int, dict] = {}
    last = 0.0
    for e in events:
        row = per_question.setdefault(e.question, {"markings": 0, "time": 0.0, "option": None})
        row["time"] += e.t - last
        last = e.t
        if e.kind == "answer":
            row["markings"] += 1
            row["option"] = e.option
    rows = []
    for q, row in sorted(per_question.items()):
        weight = "abcde".index(row["option"]) if row["option"] else 0
        rows.append({"question_id": q, "markings": row["markings"], "weight": weight,
                     "srt": round(row["time"] / (60 + 15 * (q % 9)), 6),
                     "qcl": round(math.log1p(weight) / (1 + row["markings"]), 6)})
    subsets: dict[str, list] = {}
    for r in rows:
        for key in ("all", f"subject-{r['question_id'] % 4}", f"topic-{r['question_id'] % 13}"):
            s = subsets.setdefault(key, [0.0, 0.0, 0])
            s[0] += r["weight"]
            s[1] += r["srt"]
            s[2] += 1
    return {"student_id": student, "questions": rows,
            "subsets": [{"subset": k, "ws": v[0], "srt": v[1] / v[2]}
                        for k, v in sorted(subsets.items())]}


def main(out: Path) -> None:
    text = event_csv()
    body = io.StringIO(text[text.index("\n") + 1:])
    by_student: dict[str, list[Event]] = {}
    for r in csv.reader(body):
        e = Event(r[0], int(r[1]), r[2], r[3], float(r[4]))
        by_student.setdefault(e.student, []).append(e)
    reports = [student_report(s, events) for s, events in by_student.items()]
    out.mkdir(parents=True, exist_ok=True)
    (out / "students.json").write_text(json.dumps(reports, indent=2), encoding="utf-8")
    with (out / "questions.csv").open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        for report in reports:
            for r in report["questions"]:
                writer.writerow([report["student_id"], *r.values()])


if __name__ == "__main__":
    main(Path(sys.argv[1]))
