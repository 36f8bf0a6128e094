"""Workload inputs: three fixed questionnaire specs and seeded event logs.

The specs do not depend on the seed; only the event logs do. Each log
is built with the package's own simulator (``simulate_class``) and
serialised with ``event_log_csv``, so the program under test receives
nothing but a spec JSON file and an event CSV file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from edumetrics import EventKind, SplitMix64, event_log_csv, profile_from_name, simulate_class

LEVELS = (1, 3, 5)


@dataclass(frozen=True)
class Workload:
    name: str
    subjects: tuple[str, ...]
    topics_per_question: int
    topic_count: int
    mix: tuple[tuple[str, int], ...]  # (profile name, students)
    markings_range: tuple[int, int]  # self-corrector markings per question
    strip_views: bool
    output_format: str


QUESTIONS = 40

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cohort",
            subjects=("Algebra", "Geometry", "Statistics", "Calculus"),
            topics_per_question=1,
            topic_count=13,
            mix=(("assured", 60), ("guesser", 60), ("self-corrector", 60), ("disordered", 60)),
            markings_range=(2, 5),
            strip_views=False,
            output_format="csv",
        ),
        Workload(
            name="topic-dense",
            subjects=(
                "Algebra", "Geometry", "Statistics", "Calculus",
                "Physics", "Chemistry", "Biology", "History",
            ),
            topics_per_question=4,
            topic_count=48,
            mix=(("assured", 35), ("guesser", 35), ("self-corrector", 35), ("disordered", 35)),
            markings_range=(2, 5),
            strip_views=False,
            output_format="json",
        ),
        Workload(
            name="long-logs",
            subjects=("General",),
            topics_per_question=1,
            topic_count=1,
            mix=(("self-corrector", 150),),
            markings_range=(8, 16),
            strip_views=True,
            output_format="csv",
        ),
    )
}

# Student ids carry the profile, so the checker can assert each
# profile's known outcomes without asking the package.
ID_PREFIX = {
    "assured": "assured-",
    "guesser": "guesser-",
    "self-corrector": "corrector-",
    "disordered": "disordered-",
}


def spec_json(workload: Workload) -> str:
    """The workload's questionnaire: 40 questions spread evenly over its
    subjects, each in ``topics_per_question`` of its topics, with the
    correct option, difficulty and expected time varying by position."""
    per_subject = QUESTIONS // len(workload.subjects)
    stride = workload.topic_count // workload.topics_per_question
    questions = []
    for index in range(QUESTIONS):
        weights = [4, 3, 2, 1, 0]
        shift = index % 5
        weights = weights[-shift:] + weights[:-shift] if shift else weights
        topics = sorted({(index + stride * j) % workload.topic_count + 1
                         for j in range(workload.topics_per_question)})
        questions.append(
            {
                "question_id": index + 1,
                "subject": workload.subjects[index // per_subject],
                "topic_ids": topics,
                "qdi": LEVELS[index % 3],
                "cdi": LEVELS[(index // 3) % 3],
                "tdi": LEVELS[(index // 9) % 3],
                "expected_time_s": 60 + 15 * (index % 9),
                "options": [
                    {"option_id": letter, "ws_weight": weight}
                    for letter, weight in zip("abcde", weights)
                ],
            }
        )
    doc = {
        "questionnaire_id": f"perfbench-{workload.name}",
        "max_total_time_s": 14400,
        "questions": questions,
    }
    return json.dumps(doc, indent=2) + "\n"


def event_log(workload: Workload, spec, seed: int) -> tuple[str, dict[str, str]]:
    """Simulate the workload's class from ``seed``.

    Returns the event CSV text and each student's profile name. Each
    profile's base seed is drawn from a SplitMix64 stream started at
    ``seed``; student i of a profile then runs on base + i.
    """
    rng = SplitMix64(seed)
    sessions = []
    profiles: dict[str, str] = {}
    for name, count in workload.mix:
        profile = profile_from_name(name, rng.next_u64(), markings_range=workload.markings_range)
        batch = simulate_class(profile, spec, count, id_prefix=ID_PREFIX[name])
        if workload.strip_views:
            batch = [
                replace(s, events=tuple(e for e in s.events if e.kind is EventKind.ANSWER))
                for s in batch
            ]
        sessions.extend(batch)
        profiles.update((s.student_id, name) for s in batch)
    return event_log_csv(sessions), profiles
