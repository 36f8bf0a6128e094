"""Acceptance suite.

Worked examples are checked at their stated tolerances, and the
class-level behaviors are checked by properties: a brute-force oracle
written directly over event rows (sharing no code with the engine),
an invariant battery, simulator separation and end-to-end determinism.
Each criterion prints one PASS line when it holds.
"""

import json
import math
import random
import subprocess
import sys

import pytest

from edumetrics import (
    AnswerSequence,
    ComprehensionInputs,
    QuadrantLabel,
    QuestionSubset,
    SrtMode,
    StudentSession,
    assign_group,
    assurance_degree,
    build_grouping,
    classify_quadrant,
    comprehension_for_response,
    comprehension_for_subset,
    derive_answer_sequence,
    derive_responses,
    level_of_disorder,
    parse_event_log,
    parse_questionnaire,
    pick_log_srt_mode,
    priority,
    profile_from_name,
    question_comprehension_level,
    question_doubt,
    questionnaire_comprehension_level,
    simulate_class,
    student_response_time,
    traditional_score,
    weighted_score,
)
from helpers import make_question, make_spec, responses_for

SIX = make_spec(n=6)
WHOLE_SIX = QuestionSubset.whole(SIX)


def _ok(label):
    print(f"PASS: {label}")


# --- criterion 1: worked examples ------------------------------------------


def test_scores_subjects_a_and_b():
    subject_a = responses_for(SIX, [4, 3, 4, 2, 4, 4])
    subject_b = responses_for(SIX, [3, 3, 3, 3, 3, 4])
    assert traditional_score(subject_a, SIX, WHOLE_SIX) == pytest.approx(6.67, abs=5e-3)
    assert traditional_score(subject_b, SIX, WHOLE_SIX) == pytest.approx(1.67, abs=5e-3)
    assert weighted_score(subject_a, SIX, WHOLE_SIX) == pytest.approx(8.75, abs=5e-3)
    assert weighted_score(subject_b, SIX, WHOLE_SIX) == pytest.approx(7.92, abs=5e-3)
    _ok("traditional and weighted scores, subjects A and B")


def test_question_doubt_table():
    responses = responses_for(SIX, [4] * 6, markings=[2, 4, 5, 6, 8, 1])
    doubts = [question_doubt(responses[q]) for q in range(1, 7)]
    assert doubts == [1, 3, 4, 5, 7, 0]
    unanswered = responses_for(SIX, [None] * 6)
    assert question_doubt(unanswered[1]) == -1
    _ok("question doubt table and the unanswered sentinel")


def test_assurance_extreme_cases():
    confident = responses_for(SIX, [4] * 6, markings=[1] * 6)
    wrong = responses_for(SIX, [0] * 6, markings=[1] * 6)
    corrected = responses_for(SIX, [4] * 6, markings=[4, 2, 1, 3, 5, 2])
    assert assurance_degree(confident, SIX, WHOLE_SIX) == 1.0
    assert assurance_degree(wrong, SIX, WHOLE_SIX) == 0.0
    assert assurance_degree(corrected, SIX, WHOLE_SIX) == pytest.approx(0.3529, abs=1e-4)
    _ok("assurance degree extreme cases")


def test_question_comprehension_table():
    cases = [
        # (w, qdi, cdi, srt, t, expected)
        (4, 5, 5, 60.0, 250.0, 0.25),
        (4, 3, 3, 70.0, 250.0, 1.00),
        (3, 5, 5, 60.0, 180.0, 0.75),
        (4, 3, 3, 300.0, 250.0, 0.9945),
        (2, 5, 5, 650.0, 300.0, 0.4942),
    ]
    for w, qdi, cdi, srt, t, expected in cases:
        value = question_comprehension_level(
            ComprehensionInputs(qdi=qdi, cdi=cdi, w=w, srt_s=srt, expected_time_s=t)
        )
        assert value == pytest.approx(expected, abs=1e-4)
    _ok("question comprehension table, all five cases")


def test_questionnaire_comprehension_examples():
    qucl_a = questionnaire_comprehension_level(
        [1, 0.75, 1, 0.50, 1, 1], ad=1 - 0.764, q_count=6
    )
    assert qucl_a == pytest.approx(0.7761, abs=1e-4)
    # Evaluating the formula on the full six-entry table gives 0.6951,
    # not the printed 58.54% which drops one 0.75 term.
    qucl_b = questionnaire_comprehension_level([0.75] * 5 + [1], ad=1 - 0.833, q_count=6)
    assert qucl_b == pytest.approx(0.6951, abs=1e-4)
    _ok("questionnaire comprehension, subject A and the literal subject B")


def test_priority_examples_and_ordering():
    p_a = priority(6.67, 8.75)
    p_b = priority(1.67, 7.92)
    assert p_a == pytest.approx(2.914, abs=5e-3)
    assert p_b == pytest.approx(6.597, abs=5e-3)
    assert p_b > p_a
    _ok("priority values and the B-over-A ordering")


def test_grouping_for_33_students():
    scheme = build_grouping(33)
    assert scheme.k == 6
    assert scheme.h == pytest.approx(0.1667, abs=5e-3)
    table = [
        (0.0000, 0.1667),
        (0.1667, 0.3333),
        (0.3333, 0.5000),
        (0.5000, 0.6667),
        (0.6667, 0.8333),
        (0.8333, 1.0000),
    ]
    for (floor, ceiling), (want_floor, want_ceiling) in zip(scheme.bounds, table):
        assert floor == pytest.approx(want_floor, abs=5e-3)
        assert ceiling == pytest.approx(want_ceiling, abs=5e-3)
    assert assign_group(0.5, scheme) == 4
    _ok("grouping scheme for 33 students and assign(0.5)")


def test_quadrant_examples():
    assert classify_quadrant(0.875, 0.8352) is QuadrantLabel.Q1
    assert classify_quadrant(0.2857, 0.2839) is QuadrantLabel.Q3
    assert classify_quadrant(0.5, 0.5) is QuadrantLabel.Q1
    _ok("quadrant classification examples")


# --- criterion 2a: oracle equivalence ---------------------------------------
#
# The oracle below recomputes every metric from plain event tuples and
# spec dictionaries. It shares no code with the engine.

SUBJECT_POOL = ("alpha", "beta", "gamma")
TOPIC_POOL = (1, 2, 3, 4)
OPTION_IDS = "abcde"


def _random_spec_doc(rnd):
    question_count = rnd.randint(1, 8)
    questions = []
    for qid in range(1, question_count + 1):
        weights = [rnd.choice((0, 1, 2, 3)) for _ in range(5)]
        weights[rnd.randrange(5)] = 4
        questions.append(
            {
                "question_id": qid,
                "subject": rnd.choice(SUBJECT_POOL),
                "topic_ids": sorted(rnd.sample(TOPIC_POOL, rnd.randint(0, 2))),
                "qdi": rnd.choice((1, 3, 5)),
                "cdi": rnd.choice((1, 3, 5)),
                "tdi": rnd.choice((1, 3, 5)),
                "expected_time_s": round(rnd.uniform(20.0, 400.0), 3),
                "options": [
                    {"option_id": OPTION_IDS[i], "ws_weight": weights[i]} for i in range(5)
                ],
            }
        )
    return {
        "questionnaire_id": "oracle",
        "max_total_time_s": 100000.0,
        "questions": questions,
    }


def _random_rows(rnd, question_count):
    rows = []
    ts = 0
    for _ in range(rnd.randint(0, 60)):
        ts += rnd.choice((0, 1, 7, 150, 2500, 30000))
        qid = rnd.randint(1, question_count)
        if rnd.random() < 0.25:
            rows.append((qid, "view", "", ts))
        else:
            rows.append((qid, "answer", rnd.choice(OPTION_IDS), ts))
    end_ts = ts + rnd.choice((0, 400, 9000))
    return rows, end_ts


def _oracle_srt_ms(ordered, end_ts, mode):
    srt = {}
    if mode == "view":
        for index, (qid, _, _, ts) in enumerate(ordered):
            until = ordered[index + 1][3] if index + 1 < len(ordered) else end_ts
            srt[qid] = srt.get(qid, 0) + (until - ts)
    else:
        answers = [row for row in ordered if row[1] == "answer"]
        if answers:
            first_qid = answers[0][0]
            srt[first_qid] = srt.get(first_qid, 0) + (answers[0][3] - ordered[0][3])
            for earlier, later in zip(answers, answers[1:]):
                srt[later[0]] = srt.get(later[0], 0) + (later[3] - earlier[3])
    return srt


def _oracle_entropy(ids):
    if len(ids) < 2:
        return 0.0
    ordered_pairs = sum(1 for a, b in zip(ids, ids[1:]) if a <= b)
    rest = len(ids) - 1 - ordered_pairs
    if ordered_pairs == 0 or rest == 0:
        return 0.0
    p1 = ordered_pairs / (ordered_pairs + rest)
    p2 = rest / (ordered_pairs + rest)
    return -(p1 * math.log(p1, 2) + p2 * math.log(p2, 2))


def _oracle_qcl(w, qdi, cdi, srt_s, t):
    mcl = qdi * cdi * 4
    ecl = qdi * cdi * w
    if srt_s <= t / 4:
        return ecl / (mcl * 4)
    if srt_s <= t:
        return ecl / mcl
    return ecl / (mcl + (srt_s - t) / t)


def _oracle_metrics(doc, rows, end_ts, mode):
    questions = {q["question_id"]: q for q in doc["questions"]}
    weight_of = {
        (q["question_id"], o["option_id"]): o["ws_weight"]
        for q in doc["questions"]
        for o in q["options"]
    }
    ordered = sorted(rows, key=lambda row: row[3])
    if mode == "auto":
        mode = "view" if any(row[1] == "view" for row in ordered) else "answer"

    markings = {}
    final = {}
    for qid, kind, opt, _ in ordered:
        if kind == "answer":
            markings[qid] = markings.get(qid, 0) + 1
            final[qid] = opt
    srt_ms = _oracle_srt_ms(ordered, end_ts, mode)
    answer_ids = [qid for qid, kind, _, _ in ordered if kind == "answer"]

    subsets = {("questionnaire", None): sorted(questions)}
    for subject in SUBJECT_POOL:
        ids = [q["question_id"] for q in doc["questions"] if q["subject"] == subject]
        if ids:
            subsets[("subject", subject)] = ids
    for topic in TOPIC_POOL:
        ids = [q["question_id"] for q in doc["questions"] if topic in q["topic_ids"]]
        if ids:
            subsets[("topic", topic)] = ids

    per_question = {}
    for qid, q in questions.items():
        w = weight_of[(qid, final[qid])] if qid in final else 0
        srt_s = srt_ms.get(qid, 0) / 1000.0
        per_question[qid] = {
            "markings": markings.get(qid, 0),
            "doubt": markings.get(qid, 0) - 1,
            "weight": w,
            "srt_s": srt_s,
            "qcl": _oracle_qcl(w, q["qdi"], q["cdi"], srt_s, q["expected_time_s"]),
        }

    per_subset = {}
    for key, ids in subsets.items():
        hits = sum(1 for qid in ids if per_question[qid]["weight"] == 4 and qid in final)
        total_w = sum(per_question[qid]["weight"] for qid in ids)
        total_m = sum(per_question[qid]["markings"] for qid in ids)
        ts = 10 * hits / len(ids)
        ws = 10 * total_w / (4 * len(ids))
        ad = hits / total_m if total_m else 0.0
        qcls = [per_question[qid]["qcl"] for qid in ids]
        keep = set(ids)
        per_subset[key] = {
            "ts": ts,
            "ws": ws,
            "ad": ad,
            "srt_s": sum(per_question[qid]["srt_s"] for qid in ids),
            "d": _oracle_entropy([qid for qid in answer_ids if qid in keep]),
            "qucl": sum(qcls) / (len(ids) + (1 - ad)),
            "p": (10 - ts) * ws / 10,
        }
    return per_question, per_subset, mode


def _engine_metrics(doc, rows, end_ts, mode):
    spec = parse_questionnaire(json.dumps(doc))
    lines = ["student_id,question_id,event,option_id,timestamp_ms"]
    for qid, kind, opt, ts in rows:
        lines.append(f"s1,{qid},{kind},{opt},{ts}")
    lines.append(f"s1,,end,,{end_ts}")
    sessions = parse_event_log("\n".join(lines) + "\n", spec)
    session = sessions[0] if sessions else StudentSession("s1", (), end_ts)
    srt_mode = pick_log_srt_mode([session]) if mode == "auto" else SrtMode(mode)
    responses = derive_responses(session, spec, srt_mode)
    sequence = derive_answer_sequence(session)

    per_question = {}
    for q in spec.questions:
        r = responses[q.question_id]
        per_question[q.question_id] = {
            "markings": r.markings,
            "doubt": question_doubt(r),
            "weight": r.final_weight,
            "srt_s": r.srt_s,
            "qcl": comprehension_for_response(r, q),
        }

    subsets = {("questionnaire", None): QuestionSubset.whole(spec)}
    for subject in spec.subjects():
        subsets[("subject", subject)] = QuestionSubset.for_subject(spec, subject)
    for topic in spec.topics():
        subsets[("topic", topic)] = QuestionSubset.for_topic(spec, topic)

    per_subset = {}
    for key, subset in subsets.items():
        ts = traditional_score(responses, spec, subset)
        ws = weighted_score(responses, spec, subset)
        per_subset[key] = {
            "ts": ts,
            "ws": ws,
            "ad": assurance_degree(responses, spec, subset),
            "srt_s": student_response_time(responses, subset),
            "d": level_of_disorder(sequence.restricted_to(subset)),
            "qucl": comprehension_for_subset(responses, spec, subset),
            "p": priority(ts, ws),
        }
    return per_question, per_subset


def test_oracle_equivalence_on_1000_random_instances():
    for instance in range(1000):
        rnd = random.Random(instance)
        doc = _random_spec_doc(rnd)
        rows, end_ts = _random_rows(rnd, len(doc["questions"]))
        mode = rnd.choice(("auto", "view", "answer"))
        oracle_q, oracle_s, resolved = _oracle_metrics(doc, rows, end_ts, mode)
        engine_q, engine_s = _engine_metrics(doc, rows, end_ts, mode)

        assert engine_q.keys() == oracle_q.keys(), f"instance {instance}"
        for qid in oracle_q:
            for name, want in oracle_q[qid].items():
                got = engine_q[qid][name]
                assert got == pytest.approx(want, abs=1e-9), (
                    f"instance {instance}, question {qid}, {name}"
                )
        assert engine_s.keys() == oracle_s.keys(), f"instance {instance}"
        for key in oracle_s:
            for name, want in oracle_s[key].items():
                got = engine_s[key][name]
                assert got == pytest.approx(want, abs=1e-9), (
                    f"instance {instance}, subset {key}, {name}"
                )
    _ok("oracle equivalence over 1000 random instances")


# --- criterion 2b: invariant suite ------------------------------------------


def test_invariant_weighted_vs_traditional_and_assurance_bounds():
    rnd = random.Random(101)
    for _ in range(500):
        n = rnd.randint(1, 8)
        spec = make_spec(n=n)
        weights = [rnd.choice([None, 0, 1, 2, 3, 4]) for _ in range(n)]
        markings = [rnd.randint(1, 9) if w is not None else 0 for w in weights]
        responses = responses_for(spec, weights, markings=markings)
        subset = QuestionSubset.whole(spec)
        assert weighted_score(responses, spec, subset) >= traditional_score(
            responses, spec, subset
        ) - 1e-12
        assert 0.0 <= assurance_degree(responses, spec, subset) <= 1.0
    _ok("weighted >= traditional and assurance in [0, 1]")


def test_invariant_comprehension_bounds_and_boundaries():
    rnd = random.Random(102)
    for _ in range(500):
        value = question_comprehension_level(
            ComprehensionInputs(
                qdi=rnd.choice((1, 3, 5)),
                cdi=rnd.choice((1, 3, 5)),
                w=rnd.choice((0, 1, 2, 3, 4)),
                srt_s=rnd.uniform(0, 2500),
                expected_time_s=rnd.uniform(1, 500),
            )
        )
        assert 0.0 <= value <= 1.0
    for t in (10.0, 250.0, 333.3):
        at_t = question_comprehension_level(
            ComprehensionInputs(qdi=5, cdi=3, w=3, srt_s=t, expected_time_s=t)
        )
        over_t = question_comprehension_level(
            ComprehensionInputs(qdi=5, cdi=3, w=3, srt_s=t * (1 + 1e-13), expected_time_s=t)
        )
        assert abs(at_t - over_t) <= 1e-12
        fast = question_comprehension_level(
            ComprehensionInputs(qdi=5, cdi=3, w=3, srt_s=t / 4, expected_time_s=t)
        )
        normal = question_comprehension_level(
            ComprehensionInputs(qdi=5, cdi=3, w=3, srt_s=t / 2, expected_time_s=t)
        )
        assert abs(fast - normal / 4) <= 1e-12
    _ok("comprehension bounds, continuity at t, factor-4 jump at t/4")


def test_invariant_disorder_bounds_and_monotonic_zero():
    rnd = random.Random(103)
    for _ in range(500):
        ids = [rnd.randint(1, 8) for _ in range(rnd.randint(0, 40))]
        sequence = AnswerSequence(tuple(ids))
        assert 0.0 <= level_of_disorder(sequence) <= 1.0
    ascending = AnswerSequence(tuple(range(1, 9)))
    descending = AnswerSequence(tuple(range(8, 0, -1)))
    assert level_of_disorder(ascending) == 0.0
    assert level_of_disorder(descending) == 0.0
    _ok("disorder in [0, 1], zero on both monotonic orders")


def test_invariant_group_and_quadrant_totality():
    rnd = random.Random(104)
    for count in (1, 4, 33, 90):
        scheme = build_grouping(count)
        for _ in range(300):
            value = rnd.choice((0.0, 1.0, rnd.random()))
            group = assign_group(value, scheme)
            assert 1 <= group <= scheme.k
    for _ in range(500):
        label = classify_quadrant(rnd.random(), rnd.random())
        assert label in QuadrantLabel
    _ok("group assignment and quadrant classification are total")


def test_invariant_priority_argmax_survives_normalization():
    rnd = random.Random(105)
    for _ in range(200):
        raw = {e: priority(rnd.uniform(0, 10), rnd.uniform(0, 10)) for e in "abcdef"}
        normalized = {e: p / 10 for e, p in raw.items()}
        assert max(raw, key=raw.get) == max(normalized, key=normalized.get)
    _ok("priority argmax is invariant under normalization")


# --- criterion 2c: simulator separation --------------------------------------


def test_simulator_separation_assured_vs_guesser():
    spec = make_spec(n=5)
    subset = QuestionSubset.whole(spec)
    assured = simulate_class(profile_from_name("assured", 1), spec, 100)
    guessers = simulate_class(profile_from_name("guesser", 10_000), spec, 100)

    assured_qucl = []
    for session in assured:
        responses = derive_responses(session, spec, SrtMode.VIEW_INTERVALS)
        sequence = derive_answer_sequence(session)
        assert traditional_score(responses, spec, subset) == 10.0
        assert assurance_degree(responses, spec, subset) == 1.0
        assert level_of_disorder(sequence) == 0.0
        assured_qucl.append(comprehension_for_subset(responses, spec, subset))
    guesser_qucl = [
        comprehension_for_subset(derive_responses(s, spec, SrtMode.VIEW_INTERVALS), spec, subset)
        for s in guessers
    ]
    assert min(assured_qucl) > max(guesser_qucl)
    _ok("assured and guesser comprehension ranges are disjoint over 100+100 students")


# --- criterion 2d: end-to-end determinism ------------------------------------


def test_end_to_end_determinism(tmp_path):
    from edumetrics import serialize_questionnaire

    subjects = [
        "Portuguese", "English", "Spanish", "History", "Chemistry",
        "Physics", "Sociology", "Maths", "Geography", "Biology",
    ]
    questions = [
        make_question(
            i + 1,
            subject=subjects[i % 10],
            topics=(i % 7 + 1,),
            expected_time_s=60.0 + 10 * (i % 5),
        )
        for i in range(40)
    ]
    spec = make_spec(questions)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(serialize_questionnaire(spec), encoding="utf-8")

    events_path = tmp_path / "events.csv"
    result = subprocess.run(
        [
            sys.executable, "-m", "edumetrics", "simulate",
            "--spec", str(spec_path), "--profile", "self-corrector",
            "--count", "33", "--seed", "97", "--out", str(events_path),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr

    outputs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        result = subprocess.run(
            [
                sys.executable, "-m", "edumetrics", "compute",
                "--spec", str(spec_path), "--events", str(events_path),
                "--out", str(out_dir), "--format", "csv",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        names = [
            "students.json",
            "class.json",
            "students.csv",
            "questions.csv",
            "plotdata/groups_histogram.csv",
            "plotdata/ad_vs_qucl.csv",
            "plotdata/subject_srt.csv",
        ]
        outputs.append({name: (out_dir / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]

    students = json.loads(outputs[0]["students.json"].decode("utf-8"))
    assert len(students) == 33
    class_report = json.loads(outputs[0]["class.json"].decode("utf-8"))
    roster = class_report["quadrants"]
    assert sum(len(ids) for ids in roster.values()) == 33
    assert sorted(sid for ids in roster.values() for sid in ids) == sorted(
        s["student_id"] for s in students
    )
    _ok("two compute runs produce byte-identical outputs")
