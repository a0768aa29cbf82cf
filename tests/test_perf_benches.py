"""The microbench surface the benchmark ledger imports from
``repro.perf.benches``: each body at a tiny size, checked for the
deterministic half of what it reports (wall-clock is never asserted)."""

from repro.experiments.scenarios import QUICK, make_workload
from repro.perf import benches
from repro.perf.benches import (SHARD_WEIGHTS, bench_callback_chain,
                                bench_channel_throughput,
                                bench_event_pingpong, bench_timeout_storm)


def test_public_names_are_the_ledger_imports():
    assert set(benches.__all__) == {
        "SHARD_WEIGHTS", "bench_timeout_storm", "bench_callback_chain",
        "bench_event_pingpong", "bench_channel_throughput"}


def test_timeout_storm_counts_the_same_events_under_both_schedulers():
    heap = bench_timeout_storm(7, 30, "heap")
    calendar = bench_timeout_storm(7, 30, "calendar")
    assert heap["events"] == calendar["events"] >= 7 * 30
    assert heap["wall_s"] > 0 and calendar["events_per_s"] > 0


def test_callback_chain_and_pingpong_run_to_completion():
    assert bench_callback_chain(500)["callbacks_per_s"] > 0
    assert bench_event_pingpong(300)["rounds"] == 300


def test_channel_throughput_delivers_every_element_deterministically():
    first = bench_channel_throughput(400)
    second = bench_channel_throughput(400)
    assert first["elements"] == second["elements"] == 400
    assert first["kernel_events"] == second["kernel_events"] > 0


def test_twitch_shard_weights_cover_the_built_graph():
    job = make_workload("twitch", QUICK).build()
    assert set(SHARD_WEIGHTS["twitch"]) == set(job.graph.operators)
