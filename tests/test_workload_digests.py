"""Report bytes of every benchmark workload, pinned in tier-1: the sha256 of
each workload's event log at seeds 11 and 13 and of the seven files that
``compute --format csv`` writes from it, plus one ``--format json`` run per
workload, which writes the same students.json, class.json and plot data and no
flat CSVs. Reads ``perfbench/`` and writes nothing there."""

import functools
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from edumetrics import parse_questionnaire
from edumetrics.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FLAT_CSVS = ("students.csv", "questions.csv")

# Recorded from the implementation whose compute_student built a frozen-dataclass
# response per question and gathered each subset from its question rows.
DIGESTS = {
    ("cohort", 11): {
        "events.csv": "4a50679dddb494ac6504cb15fa0c6eb1d003259d861ca57c31706149d3a9f11f",
        "students.json": "238d9afd2358005d3472ccff4ec8702c88bde5aa440a1b4ee77667f38530358c",
        "class.json": "f575e854955174c09d8939fb33fca3891519201408f21fd982e0e169d7e3192d",
        "students.csv": "fea68e4f0b927ca7845d8a9757f4b2f16cf70d7e5482b53baa032cc0f8a08d94",
        "questions.csv": "505b83ab31a94553ec2595739d9261af804cd81b02486ba5655cee4ddadb967f",
        "plotdata/groups_histogram.csv": "edbb703792fdc9c58f6d08dd786efcd03676927407380a92be367d67bbde56f9",
        "plotdata/ad_vs_qucl.csv": "01d0dc4bc726b66dfea79150adf270ab287fcc8afe7c25e079801158c1901c47",
        "plotdata/subject_srt.csv": "073f7476289d29237b5d8f082eb4f200447e3b49fdc8945eb2caae756e088654",
    },
    ("cohort", 13): {
        "events.csv": "3dd0f6bb0f31722552091a71c4c6d2984424175acfad2a741754b5c7436fc1b5",
        "students.json": "81ddc0e700f368f723e3586f6073b15c8ef3d930648d93220ad97f562161f97b",
        "class.json": "a2e4e6cfadd34c7242f97988ba58f24bb5bce5e1817f83491d50d1ed3b376f68",
        "students.csv": "d8d30647f6894e0a513a9d621b6200bca12561551c5d1737bd53ba767ea5ca1e",
        "questions.csv": "c2dbd4a03d0241f1c1926f4139c33b76d6ba67547700182ca0f22cac51757c4d",
        "plotdata/groups_histogram.csv": "d08a14e25e0b0a4d9a328757014b795d01cc0bef2361026b59896b4c21882fc3",
        "plotdata/ad_vs_qucl.csv": "099b1028b6996e165d967e48998f0c83d7835d3aced2f34a0e062f5fefa7eb37",
        "plotdata/subject_srt.csv": "c2274c4b0b4723858b02f2648a98734b0cdfe4a3a73dfd649fdb902ab24f48cd",
    },
    ("topic-dense", 11): {
        "events.csv": "a14ef33df44430d12221b6306e9e8f09de7d1666c4283d6ba87fc10651af3de5",
        "students.json": "2fe013a15b7d82d80c91a85bc83337233c9b6c7f1f4acac7307be9a1517863d2",
        "class.json": "3c2aa104ac73bb5c916f08bf6f72e80ee4574cab53e268e5c3ed233de45b79f4",
        "students.csv": "fc0276692ee10585b9fc5e11571ad51970f311ae2a198e1cf7b955864a4ed3eb",
        "questions.csv": "0593f383468fed668609c3116fbce83b00bf43f3401c6eb40deefc89d5602ea3",
        "plotdata/groups_histogram.csv": "b208824ab6eb739498eb988f6437583f16fe75dc5c9f6e5937c0787a3a7de505",
        "plotdata/ad_vs_qucl.csv": "f0bf025d520bbc32e47153a832f3542ba165347802ab892d5cb34735072be315",
        "plotdata/subject_srt.csv": "acd81149f5c27026a9c42a54a6612cd0cf8a73eb6c1907889188a8450a3f965f",
    },
    ("topic-dense", 13): {
        "events.csv": "3ae986b57fc6da10b48a165a04d41d1467ccec8553bfd39db8b571e9a79f5971",
        "students.json": "f5ed52b4b31112b7750ba578605bb2bac5a26bc70c1c1d367089564dcb066c0f",
        "class.json": "d689972dbaa5691773527c8cc7054fad29ec728e7e1a11285e5a54af8cd73ef7",
        "students.csv": "9d6e3117a90e8d547b2181df70592383c19b1fe83453a246191e768e48e861eb",
        "questions.csv": "2eda4a5a48c04eb4d8bb7e6ea5d283d4a8f2ad14699f71246d08babb5ea91906",
        "plotdata/groups_histogram.csv": "aaae0d0656b02f3e4aa09a3e42480cbd65aa3953a0ba8a186f63415047d9bc4f",
        "plotdata/ad_vs_qucl.csv": "404b189fce5cccca70890a581c2b20e5adf298426f60bdc72635ebc0fd878ffc",
        "plotdata/subject_srt.csv": "9ba6cac65d2fc24ddf9a7da31600cc3d61b239d64a92d15314eb0651b525c64c",
    },
    ("long-logs", 11): {
        "events.csv": "43c89e878976ea4d4b3e5a43b9367c5a57f4c4b6912c1a806f93ba38e9991150",
        "students.json": "9eb528ae0dc02422a1036448953482f4705576831e04f8a6127c970cedf59a54",
        "class.json": "2ec2e1c3e74e501afd34a499487f442f6137d76cc9bc30a4c3a838e44a28fda4",
        "students.csv": "c96eb7acc50abe672bfafe32caa2f13ba0e7868c3fc2fe01d22080f86776fb9e",
        "questions.csv": "05f7812389518f10fa3e0c4c5364988a92fd8e4989f46b33071aec147df9c3f9",
        "plotdata/groups_histogram.csv": "f734ce6b01c9a61c5060d5f1138e69bc74910d67de56ad97c52be93032086732",
        "plotdata/ad_vs_qucl.csv": "4e9e2062428911e513f16d5df6c4006d922f0aeca56dc13b891c611890486cd9",
        "plotdata/subject_srt.csv": "0d10ada3faa107121f0f51be5650bcf252b1e43fae0fa9dacbd0a6bc2c5575b4",
    },
    ("long-logs", 13): {
        "events.csv": "53579ad59b1d4cbadd1345c2f58b03fd3061630ca9c9ca429d0f69e2af2c60af",
        "students.json": "308cad1a5dc47850154f0326882a81022193b3135614a9c4ad0565b70c5463f9",
        "class.json": "78156a3586599263658fb75f768d1c0eab33f4525e90f22dba81e69708c9b5cc",
        "students.csv": "6e873981dbe82cf52ae5f72be86674189e1256f20832da5cfaf72cacce17e0e5",
        "questions.csv": "88b3ba197499250a821f7b890a93a0206eff2fbac351e0144a5cd5714a1f13e4",
        "plotdata/groups_histogram.csv": "992d58dc1e9b0c5bb9e6168d33b6ea57ad7e4ab0ec68b1815914bd05267e848d",
        "plotdata/ad_vs_qucl.csv": "00a588318155e77562566e31d193b168024e1389f718d9b3ac9e1bc23d6660f0",
        "plotdata/subject_srt.csv": "9e3065c80611ab482358f6dd4b4cb2fc16340e03f55ed14b3efc6171d847b43b",
    },
}


@functools.lru_cache(maxsize=None)
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module  # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@functools.lru_cache(maxsize=None)
def _inputs(name: str, seed: int) -> tuple[str, str]:
    """The workload's spec JSON and its event log at ``seed``."""
    workloads = _workloads()
    spec_text = workloads.spec_json(workloads.WORKLOADS[name])
    log, _ = workloads.event_log(workloads.WORKLOADS[name], parse_questionnaire(spec_text), seed)
    return spec_text, log


def _compute(tmp_path: Path, name: str, seed: int, output: str) -> dict[str, str]:
    """sha256 of the log and of every report file that ``compute`` wrote."""
    spec_text, log = _inputs(name, seed)
    spec_path, events_path, out = tmp_path / "spec.json", tmp_path / "events.csv", tmp_path / "out"
    spec_path.write_text(spec_text, encoding="utf-8")
    events_path.write_text(log, encoding="utf-8")
    code = main(["compute", "--spec", str(spec_path), "--events", str(events_path),
                 "--out", str(out), "--format", output])
    assert code == 0
    digests = {"events.csv": hashlib.sha256(log.encode("utf-8")).hexdigest()}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_every_workload_is_pinned():
    assert {name for name, _ in DIGESTS} == set(_workloads().WORKLOADS)


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_csv_report_bytes_match_recorded_digests(tmp_path, name, seed):
    assert _compute(tmp_path, name, seed, "csv") == DIGESTS[name, seed]


@pytest.mark.parametrize("name", sorted({name for name, _ in DIGESTS}))
def test_json_report_bytes_match_recorded_digests(tmp_path, name):
    expected = {k: v for k, v in DIGESTS[name, 11].items() if k not in FLAT_CSVS}
    assert _compute(tmp_path, name, 11, "json") == expected
