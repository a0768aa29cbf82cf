"""Job introspection rows and summaries."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import build_keyed_job, build_tie_job, drive  # noqa: E402

from repro.engine import CheckpointBarrier, MapLogic, Record

from repro.engine.introspection import (channel_rows, hot_instance,
                                        instance_rows, job_summary,
                                        operator_rows)


def running_job():
    job = build_keyed_job(state_bytes_per_group=1e6)
    drive(job, until=5.0)
    job.run(until=5.0)
    return job


def test_instance_rows_cover_all_instances():
    job = running_job()
    rows = instance_rows(job)
    assert len(rows) == len(job.all_instances())
    names = {r["instance"] for r in rows}
    assert "agg[0]" in names and "src[1]" in names


def test_instance_rows_filter_by_operator():
    job = running_job()
    rows = instance_rows(job, operator="agg")
    assert len(rows) == 2
    for row in rows:
        assert row["instance"].startswith("agg")
        assert 0.0 <= row["busy_fraction"] <= 1.0
        assert row["state_mb"] > 0
        assert row["key_groups"] == 8


def test_source_rows_include_admission_backlog():
    job = running_job()
    rows = [r for r in instance_rows(job, operator="src")]
    assert all("admission_backlog" in r for r in rows)


def test_operator_rows_aggregate():
    job = running_job()
    rows = {r["operator"]: r for r in operator_rows(job)}
    assert rows["agg"]["parallelism"] == 2
    assert rows["agg"]["records_processed"] == \
        job.metrics.total_source_output()
    assert rows["agg"]["busy_max"] >= rows["agg"]["busy_mean"]


def test_channel_rows_show_congestion():
    job = build_keyed_job(agg_service=0.05)  # overload: queues build
    drive(job, until=5.0, record_gap=0.002)
    job.run(until=5.0)
    rows = channel_rows(job, min_backlog=1)
    assert rows
    assert rows[0]["outbox"] + rows[0]["in_flight"] + rows[0]["inbox"] >= \
        rows[-1]["outbox"] + rows[-1]["in_flight"] + rows[-1]["inbox"]


def test_hot_instance():
    job = running_job()
    hot = hot_instance(job, "agg")
    assert hot["busy_fraction"] == max(
        r["busy_fraction"] for r in instance_rows(job, operator="agg"))
    with pytest.raises(KeyError):
        hot_instance(job, "missing")


def test_job_summary_consistency():
    job = running_job()
    summary = job_summary(job)
    assert summary["sim_time_s"] == job.sim.now
    assert summary["instances"] == len(job.all_instances())
    assert summary["records_generated"] >= summary["records_delivered"] >= 0
    assert summary["total_state_mb"] > 0
    assert summary["record_plane"] == job.config.record_plane
    assert summary["plane_collapses"] == job.plane_collapses == 0


def test_unchained_rows_have_no_chain_head():
    job = running_job()
    assert all(r["chain_head"] is None for r in instance_rows(job))
    assert all(r["chain_head"] is None for r in operator_rows(job))


def test_chain_member_rows_name_their_head_and_its_queue():
    """A member has no queue of its own: its row points at the head whose
    task runs it and shows the depth waiting there, and its telemetry
    stays on its own track -- the chain is still seven rows, not four."""
    def stage():
        return MapLogic(lambda r: r)

    # src -REBALANCE-> pre -> s0 -> s1 -HASH-> agg -> sink
    job = build_tie_job(stages=3, sources=1, aggs=1, latency=1e-4,
                        bandwidth=float("inf"), services=(1e-5, 0.0, 0.0),
                        plane="batched", op_head=True,
                        stateless=[(stage, 0.0), (stage, 0.0)])
    telemetry = job.enable_telemetry()
    source, head = job.sources()[0], job.instances("pre")[0]
    for i in range(20):
        source.offer(Record(key=f"k{i}", count=1))
    job.sim.call_at(0.0005, lambda: source.inject(
        CheckpointBarrier(checkpoint_id=1)))
    job.sim.call_at(0.0002, job.instances("s1")[0].pause)  # holds the task
    job.run(until=0.005)

    rows = {r["instance"]: r for r in instance_rows(job)}
    assert head.paused and rows["pre[0]"]["chain_head"] is None
    assert rows["pre[0]"]["inbox_depth"] > 0  # the backlog is real
    for member in ("s0[0]", "s1[0]"):
        assert rows[member]["chain_head"] == "pre[0]"
        assert rows[member]["inbox_depth"] == rows["pre[0]"]["inbox_depth"]
        assert rows[member]["records_processed"] \
            == rows["pre[0]"]["records_processed"] > 0
    assert rows["agg[0]"]["chain_head"] is None
    by_operator = {r["operator"]: r for r in operator_rows(job)}
    assert [by_operator[name]["chain_head"]
            for name in ("src", "pre", "s0", "s1", "agg", "sink")] \
        == [None, None, "pre", "pre", None, None]

    job.instances("s1")[0].resume()
    job.run(until=0.1)
    tracks = {e.track for e in telemetry.tracer.events_named(
        "checkpoint.snapshot")}
    assert tracks == {i.name for i in job.all_instances()}
    counters = telemetry.registry.snapshot()
    for name in ("pre", "s0", "s1", "agg"):
        assert counters[f"records.processed{{operator={name}}}"] == 20
