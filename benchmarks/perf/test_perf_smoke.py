"""Smoke wrappers for the wall-clock perf suites (``repro bench``).

These run the ``smoke`` scale so CI catches harness breakage (a bench that
crashes, a schema drift, a missing baseline entry); the recorded perf
trajectory lives in ``BENCH_kernel.json`` / ``BENCH_e2e.json`` at the repo
root (``full`` scale, best-of-N, interleaved against the pre-PR commit —
see :mod:`repro.perf.baseline` for the methodology).

Wall-clock *thresholds* are deliberately absent: CI boxes are too noisy
for them.  Semantics regressions are caught by the golden-trace tests
instead.
"""

import copy

import pytest

from repro.perf import (BENCH_SCALES, compare_bench_docs,
                        config_mismatch_warnings, format_config,
                        format_delta_table, run_e2e_bench, run_kernel_bench)
from repro.perf.benches import BENCH_SCHEMA, write_bench_files

KERNEL_BENCHES = ("timeout_storm", "timeout_storm_calendar",
                  "callback_chain", "event_pingpong", "channel_throughput")


def test_kernel_bench_smoke():
    doc = run_kernel_bench("smoke")
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["scale"] == "smoke"
    assert doc["stat"] == "best"
    assert doc["config"]["record_plane"] == "batched"
    assert doc["config"]["max_batch_size"] >= 2
    assert doc["config"]["scheduler"] in ("heap", "calendar")
    assert isinstance(doc["config"]["columnar_available"], bool)
    assert doc["config"]["shards"] == 1
    assert doc["config"]["inbox_capacity"] >= 1
    for name in KERNEL_BENCHES:
        result = doc["results"][name]
        assert result["wall_s"] > 0
        throughputs = [v for k, v in result.items() if k.endswith("_per_s")]
        assert throughputs and all(v > 0 for v in throughputs)


def test_e2e_bench_smoke():
    doc = run_e2e_bench("smoke")
    results = doc["results"]
    (kind, until), = BENCH_SCALES["smoke"]["e2e"]
    assert kind == "q7"
    assert results["sim_seconds"] == until
    assert results["source_records"] > 0
    assert results["sink_records"] > 0
    assert results["records_per_sec"] > 0


def test_paper_scale_declares_all_three_workloads():
    scenarios = dict(BENCH_SCALES["paper"]["e2e"])
    assert scenarios == {"q7": 600.0, "q8": 600.0, "twitch": 1000.0}


def test_unknown_scale_rejected():
    with pytest.raises(ValueError, match="unknown bench scale"):
        run_kernel_bench("galactic")
    with pytest.raises(ValueError, match="unknown bench scale"):
        run_e2e_bench("galactic")
    with pytest.raises(ValueError, match="unknown bench scale"):
        write_bench_files(output_dir="/tmp", scale="galactic")


def test_bad_best_of_rejected(tmp_path):
    with pytest.raises(ValueError, match="best_of must be >= 1"):
        write_bench_files(output_dir=str(tmp_path), best_of=0)


def test_bad_stat_rejected():
    with pytest.raises(ValueError, match="unknown stat"):
        run_kernel_bench("smoke", best_of=1, stat="p99")


def test_write_bench_files_embeds_baseline(tmp_path):
    written = write_bench_files(output_dir=str(tmp_path), scale="smoke")
    assert set(written) == {"kernel", "e2e"}
    import json

    for name, path in written.items():
        with open(path) as f:
            doc = json.load(f)
        assert doc["bench"] == name
        assert "pre_pr" in doc
        assert "speedup_vs_pre_pr" in doc


def test_median_stat_picks_a_real_run():
    doc = run_kernel_bench("smoke", best_of=3, stat="median")
    assert doc["best_of"] == 3
    assert doc["stat"] == "median"
    for name in KERNEL_BENCHES:
        assert doc["results"][name]["wall_s"] > 0


def _fake_kernel_doc():
    return {
        "schema": BENCH_SCHEMA, "bench": "kernel", "scale": "smoke",
        "results": {
            "callback_chain": {"callbacks": 100, "wall_s": 0.1,
                               "callbacks_per_s": 1000.0},
            "channel_throughput": {"elements": 100, "wall_s": 0.1,
                                   "elements_per_s": 1000.0,
                                   "kernel_events": 500},
        },
    }


def test_compare_passes_within_threshold():
    base = _fake_kernel_doc()
    current = copy.deepcopy(base)
    current["results"]["callback_chain"]["callbacks_per_s"] = 950.0
    rows, regressions = compare_bench_docs(current, base, threshold=0.10)
    assert regressions == []
    assert {r["bench"] for r in rows} >= {"callback_chain",
                                          "channel_throughput"}
    assert not any(r["regressed"] for r in rows)


def test_compare_flags_regression_past_threshold():
    base = _fake_kernel_doc()
    current = copy.deepcopy(base)
    current["results"]["channel_throughput"]["elements_per_s"] = 800.0
    rows, regressions = compare_bench_docs(current, base, threshold=0.10)
    assert len(regressions) == 1
    assert "channel_throughput.elements_per_s" in regressions[0]
    table = format_delta_table(rows)
    assert "REGRESSED" in table
    markdown = format_delta_table(rows, markdown=True)
    assert markdown.startswith("| bench |")


def test_compare_reports_event_count_drift_without_failing():
    base = _fake_kernel_doc()
    current = copy.deepcopy(base)
    current["results"]["channel_throughput"]["kernel_events"] = 499
    rows, regressions = compare_bench_docs(current, base)
    assert regressions == []
    drift = [r for r in rows if r["metric"] == "kernel_events"]
    assert len(drift) == 1 and drift[0]["current"] == 499


def test_compare_rejects_scale_mismatch():
    base = _fake_kernel_doc()
    current = copy.deepcopy(base)
    current["scale"] = "full"
    with pytest.raises(ValueError, match="scale mismatch"):
        compare_bench_docs(current, base)


def test_compare_e2e_records_per_sec():
    base = {"schema": BENCH_SCHEMA, "bench": "e2e", "scale": "smoke",
            "results": {"records_per_sec": 1000.0, "kernel_events": 7}}
    current = copy.deepcopy(base)
    current["results"]["records_per_sec"] = 500.0
    rows, regressions = compare_bench_docs(current, base)
    assert len(regressions) == 1
    assert "e2e_q7.records_per_sec" in regressions[0]


def test_compare_e2e_paper_multi_scenario():
    """The nested paper-scale e2e shape compares per scenario."""
    base = {"schema": BENCH_SCHEMA, "bench": "e2e", "scale": "paper",
            "results": {
                "q7": {"records_per_sec": 1000.0, "kernel_events": 7},
                "q8": {"records_per_sec": 400.0, "kernel_events": 9},
                "twitch": {"records_per_sec": 600.0, "kernel_events": 11},
            }}
    current = copy.deepcopy(base)
    current["results"]["q8"]["records_per_sec"] = 200.0
    current["results"]["twitch"]["kernel_events"] = 12
    rows, regressions = compare_bench_docs(current, base)
    assert len(regressions) == 1
    assert "e2e_q8.records_per_sec" in regressions[0]
    drift = [r for r in rows if r["metric"] == "kernel_events"]
    assert [r["bench"] for r in drift] == ["e2e_twitch"]


def test_config_mismatch_warnings_flag_divergent_configs():
    """Comparing runs measured under different engine configs must warn
    (scheduler, plane, batch size, shards, inbox capacity) — never diff
    silently."""
    current = {"config": {"scheduler": "calendar", "record_plane": "columnar",
                          "max_batch_size": 64, "shards": 4,
                          "inbox_capacity": 256}}
    baseline = {"config": {"scheduler": "heap", "record_plane": "columnar",
                           "max_batch_size": 64, "shards": 1,
                           "inbox_capacity": 32}}
    warnings = config_mismatch_warnings(current, baseline)
    text = "\n".join(warnings)
    assert "scheduler" in text
    assert "shards" in text
    assert "inbox_capacity" in text
    assert "record_plane" not in text
    assert "max_batch_size" not in text


def test_config_mismatch_warnings_empty_when_identical():
    doc = {"config": {"scheduler": "heap", "record_plane": "batched",
                      "max_batch_size": 64, "shards": 1,
                      "inbox_capacity": 32}}
    assert config_mismatch_warnings(doc, copy.deepcopy(doc)) == []


def test_config_mismatch_warnings_handle_old_schema_baselines():
    """/2-era baselines never recorded shards/inbox_capacity: warn about
    the absence rather than treating it as a match or crashing."""
    current = {"config": {"scheduler": "heap", "record_plane": "batched",
                          "max_batch_size": 64, "shards": 2,
                          "inbox_capacity": 256}}
    baseline = {"config": {"record_plane": "batched", "max_batch_size": 64}}
    warnings = config_mismatch_warnings(current, baseline)
    text = "\n".join(warnings)
    assert "does not record" in text
    assert "shards" in text and "scheduler" in text


def test_format_config_renders_compare_keys():
    doc = {"config": {"scheduler": "heap", "record_plane": "batched",
                      "max_batch_size": 64, "shards": 1,
                      "inbox_capacity": 32}}
    line = format_config(doc)
    for key in ("scheduler='heap'", "record_plane='batched'",
                "max_batch_size=64", "shards=1", "inbox_capacity=32"):
        assert key in line
    assert format_config({}) == "(no config recorded)"
