"""ScalingSignals: sampling semantics and EWMA smoothing."""

import pytest

from repro.autoscale import ScalingSignals
from repro.engine import MapLogic, Record
from repro.engine.introspection import instance_rows
from tests.helpers import build_keyed_job, build_tie_job, drive


# -- ScalingSignals -----------------------------------------------------------


def test_ewma_seeds_with_first_sample():
    job = drive(build_keyed_job(), until=2.0)
    signals = ScalingSignals(job, "agg")
    job.run(until=1.0)
    snap = signals.sample()
    assert len(snap.ewma) == 5
    for name, value in snap.ewma.items():
        assert value == getattr(snap, name)


def test_ewma_moves_toward_new_samples():
    job = drive(build_keyed_job(), until=3.0)
    signals = ScalingSignals(job, "agg")
    job.run(until=1.0)
    first = signals.sample()
    job.run(until=2.0)
    second = signals.sample()
    assert second.source_rate != first.source_rate
    for name, prev in first.ewma.items():
        assert second.ewma[name] == prev + 0.4 * (
            getattr(second, name) - prev)


def test_unknown_operator_rejected():
    job = build_keyed_job()
    with pytest.raises(ValueError):
        ScalingSignals(job, "nope")


def test_first_sample_reports_zero_rates():
    job = drive(build_keyed_job(), until=2.0)
    signals = ScalingSignals(job, "agg")
    job.run(until=1.0)
    snap = signals.sample()
    # No previous cursor: rates and busy fractions are zero by contract.
    assert snap.busy_max == 0.0
    assert snap.source_rate == 0.0
    assert snap.parallelism == 2


def test_sampling_reads_live_load():
    job = drive(build_keyed_job(), until=5.0)
    signals = ScalingSignals(job, "agg")
    snaps = []

    def sampler():
        while job.sim.now < 4.0:
            yield job.sim.timeout(0.5)
            snaps.append(signals.sample())

    job.sim.spawn(sampler(), name="sampler")
    job.run(until=4.5)
    warm = snaps[2:]
    assert all(0.0 <= s.busy_max <= 1.0 for s in warm)
    assert any(s.source_rate > 0 for s in warm)
    assert all(s.ewma["source_rate"] >= 0 for s in warm)
    # busy is keyed by stable instance name, sorted.
    assert list(warm[-1].busy_by_instance) == sorted(
        warm[-1].busy_by_instance)


def test_history_limit_trims():
    job = drive(build_keyed_job(), until=3.0)
    signals = ScalingSignals(job, "agg", history_limit=5)

    def sampler():
        while job.sim.now < 2.5:
            yield job.sim.timeout(0.1)
            signals.sample()

    job.sim.spawn(sampler(), name="sampler")
    job.run(until=3.0)
    assert len(signals.history) == 5


def test_chain_member_queue_depth_is_its_heads_inbox():
    """A chain member has no input channels: its queue is the head's
    inbox, the same depth `instance_rows` reports for it."""
    # src -REBALANCE-> pre -> s0 -HASH-> agg -> sink; s0 runs in pre's task
    job = build_tie_job(stages=3, sources=1, aggs=1, latency=1e-4,
                        bandwidth=float("inf"), services=(1e-5, 0.0, 0.0),
                        plane="batched", op_head=True,
                        stateless=[(lambda: MapLogic(lambda r: r), 0.01)])
    source = job.sources()[0]
    for i in range(20):
        source.offer(Record(key=f"k{i}", count=1))
    job.run(until=0.005)

    member = job.instances("s0")[0]
    assert member.chain_head is job.instances("pre")[0]
    assert not member.input_channels
    rows = instance_rows(job, "s0")
    depth = ScalingSignals(job, "s0").sample().queue_depth
    assert depth == sum(row["inbox_depth"] for row in rows) > 0


def test_snapshot_to_dict_is_json_safe():
    import json

    job = drive(build_keyed_job(), until=2.0)
    signals = ScalingSignals(job, "agg")
    job.run(until=1.0)
    doc = signals.sample().to_dict()
    json.dumps(doc)
    assert doc["parallelism"] == 2
    assert "ewma" in doc
