"""Self-tests of the benchmark ledger.

Run with ``python3 -m pytest benchmarks/ledger``.  The harness is checked
against its own registry (``BENCHMARK.json``); the program under test is
only driven through one ``--smoke`` run shared by the tests below.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RUN = os.path.join(HERE, "run.py")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run as ledger  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
STEADY = ("q7_steady", "q8_steady", "twitch_steady")


@pytest.fixture(scope="module")
def registry():
    return ledger.load_registry()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` run of every workload: ledger JSON + artifacts."""
    out = tmp_path_factory.mktemp("ledger")
    doc = out / "ledger.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--out", str(out),
         "--json", str(doc)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return {"ledger": json.loads(doc.read_text()), "out": out,
            "stdout": proc.stdout}


# -- the registry -----------------------------------------------------------

def test_registry_meets_the_contract(registry):
    assert set(registry) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert registry["paths"] == ["benchmarks/ledger"]
    assert 1 <= registry["run_seconds"] <= 60
    assert 2 <= len(registry["workloads"]) <= 8
    assert 1 <= len(registry["end_to_end"]) <= 16
    assert 1 <= len(registry["per_layer"]) <= 128
    names = []
    for workload in registry["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in registry["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in registry["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in registry["end_to_end"] + registry["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in registry["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in registry["end_to_end"])


def test_registry_names_every_layer_and_simulated_result(registry):
    per_layer = {m["name"] for m in registry["per_layer"]}
    for layer in layers.LAYERS:
        assert {f"{layer}.self_share", f"{layer}.calls"} <= per_layer
    assert set(ledger.SIM_METRICS) <= per_layer


# -- the layer map ----------------------------------------------------------

def test_layer_map_covers_every_source_file():
    package = os.path.join(SRC, "repro")
    unmapped = []
    for folder, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(folder, name), package)
                layer = layers.layer_of(rel)
                if layer is None:
                    unmapped.append(rel)
                else:
                    assert layer in layers.LAYERS, (rel, layer)
    assert not unmapped, f"no layer for: {unmapped}"


def test_unmapped_file_is_not_silently_other():
    assert layers.layer_of("brand_new_package/module.py") is None


# -- the checks -------------------------------------------------------------

def test_stall_check_fires_on_a_short_count():
    from workloads import stall_check
    assert stall_check(4_800_000, 4_800_000.0)["ok"]
    # Q7 that stopped admitting records at 35 of 240 sim-s.
    assert not stall_check(700_000, 4_800_000.0)["ok"]


def test_digest_mismatch_is_a_failed_check():
    reps = [{"checks": [], "digest": "a"}, {"checks": [], "digest": "b"}]
    [check] = ledger.collect_checks(reps)
    assert check["name"] == "repetitions_same_digest" and not check["ok"]


def test_calibration_scales_each_slice_by_its_neighbours():
    def span(kind, start, wall):
        return {"name": kind, "kind": kind, "start": start,
                "end": start + wall}

    nominal = ledger.CALIB_NOMINAL_S
    rep = {"calib_rounds": ledger.CALIB_ROUNDS, "spans": [
        span("calibration", 0.0, nominal),       # box at nominal speed
        span("run", 1.0, 0.5),
        span("calibration", 2.0, nominal),
        span("run", 3.0, 1.5),                   # box 3x slower around here
        span("calibration", 5.0, 5 * nominal),
    ]}
    assert ledger.wall_s(rep) == pytest.approx(2.0)
    assert ledger.calibrated_s(rep) == pytest.approx(0.5 + 1.5 / 3)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only the benchmark, the command must fail."""
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bare / name).write_text(open(os.path.join(HERE, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(
        open(os.path.join(ROOT, "BENCHMARK.json")).read())
    proc = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "q7_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the smoke run ----------------------------------------------------------

def test_smoke_output_validates_against_the_registry(smoke, registry):
    ledger_doc = smoke["ledger"]
    assert list(ledger_doc) == [w["name"] for w in registry["workloads"]]
    gated = {m["name"] for m in registry["end_to_end"]}
    layered = {m["name"] for m in registry["per_layer"]}
    for name, entry in ledger_doc.items():
        assert gated <= set(entry["end_to_end"]), name
        assert entry["end_to_end"]["failed_share"] == 0, name
        assert set(entry["per_layer"]) <= layered, (
            name, set(entry["per_layer"]) - layered)
        for metric in gated:
            assert entry["end_to_end"][metric] > 0, (name, metric)
    for metric in gated | layered:
        assert metric in smoke["stdout"], metric


def test_layer_shares_sum_to_one(smoke):
    for name, entry in smoke["ledger"].items():
        total = sum(entry["per_layer"][f"{layer}.self_share"]
                    for layer in layers.LAYERS)
        assert total == pytest.approx(1.0, abs=0.01), name
        assert entry["per_layer"]["other.self_share"] < 0.15, name
        assert entry["per_layer"]["trace.overhead_ratio"] > 0, name


def test_mechanism_and_bypass_workloads(smoke):
    doc = smoke["ledger"]
    for name in STEADY:
        assert doc[name]["per_layer"]["engine.checkpoint.self_share"] == 0
        assert doc[name]["per_layer"]["simulation.sharded.self_share"] == 0
    assert doc["q7_steady"]["per_layer"]["core.calls"] == 0
    assert doc["q7_rescale_drrs"]["per_layer"]["core.calls"] > 0
    crash = doc["twitch_ckpt_crash"]["per_layer"]
    assert crash["engine.checkpoint.self_share"] > 0
    assert crash["engine.checkpoint.recoveries"] == 1
    sharded = doc["twitch_sharded2"]
    assert sharded["per_layer"]["simulation.sharded.self_share"] > 0
    assert sharded["config"]["workers_used"] == 2
    assert sharded["config"]["shard_transport"] == "shm"


def test_repetitions_are_deterministic(smoke):
    for name, entry in smoke["ledger"].items():
        first, second = entry["repetitions"][:2]
        assert first["digest"] == second["digest"], name
        assert first["sim"] == second["sim"], name


def test_artifacts_are_written(smoke, registry):
    for workload in registry["workloads"]:
        name = workload["name"]
        trace = json.loads(
            (smoke["out"] / f"trace_{name}.json").read_text())
        assert [row["layer"] for row in trace["layers"]] == list(
            layers.LAYERS)
        assert all(len(row["top"]) <= 25 for row in trace["layers"])
        phases = json.loads(
            (smoke["out"] / f"phases_{name}.json").read_text())
        spans = {event["name"] for event in phases["traceEvents"]}
        assert {"setup", "calibration", "post"} <= spans, name
        reps = {event["tid"] for event in phases["traceEvents"]}
        assert len(reps) >= 4, name


def test_one_workload_command_prints_the_contract_line(registry):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "twitch_ckpt_crash",
         "--seed", "11", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"]
                                       for m in registry["end_to_end"]]
    for metric in registry["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
