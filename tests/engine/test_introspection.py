"""Job introspection rows and summaries."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import build_keyed_job, drive  # noqa: E402

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
