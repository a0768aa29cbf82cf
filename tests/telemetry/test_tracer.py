"""Tracer semantics: spans, nesting, capacity, and determinism."""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import build_keyed_job, build_tie_job, drive  # noqa: E402

from repro.core.drrs import DRRSController
from repro.engine import PassThroughLogic, Record
from repro.engine.introspection import instance_rows
from repro.simulation.kernel import Simulator
from repro.telemetry import Tracer, to_jsonl_lines


def test_span_lifecycle_and_attrs():
    sim = Simulator()
    tracer = Tracer(sim)
    span = tracer.begin("phase", category="c", track="t", a=1)
    assert not span.closed and span.duration == 0.0
    tracer.end(span, b=2)
    assert span.closed
    assert span.attrs == {"a": 1, "b": 2}
    with pytest.raises(ValueError):
        tracer.end(span)


def test_implicit_nesting_per_track():
    sim = Simulator()
    tracer = Tracer(sim)
    outer = tracer.begin("outer", track="t")
    inner = tracer.begin("inner", track="t")
    other = tracer.begin("elsewhere", track="u")
    assert inner.parent_id == outer.span_id
    assert other.parent_id is None
    tracer.end(inner)
    sibling = tracer.begin("sibling", track="t")
    assert sibling.parent_id == outer.span_id


def test_complete_records_retroactive_interval():
    sim = Simulator()
    tracer = Tracer(sim)
    span = tracer.complete("stall", category="suspension", track="agg[0]",
                           start=1.5, end=2.0)
    assert span.closed and span.duration == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tracer.complete("bad", start=2.0, end=1.0)


def test_capacity_drops_latest_deterministically():
    sim = Simulator()
    tracer = Tracer(sim, capacity=3)
    kept = [tracer.begin(f"s{i}", track="t") for i in range(3)]
    overflow = tracer.begin("s3", track="t")
    dropped_instant = tracer.instant("i0", track="t")
    assert tracer.dropped == 2
    assert overflow.span_id == 0  # placeholder, not recorded
    assert dropped_instant is None
    assert len(tracer.spans) == 3
    tracer.end(overflow)  # placeholder end() is a harmless no-op
    for span in kept:
        tracer.end(span)
    assert all(s.closed for s in tracer.spans)


def test_closed_spans_filter_and_order():
    sim = Simulator()
    tracer = Tracer(sim)
    a = tracer.complete("x", category="c", track="t", start=2.0, end=3.0)
    b = tracer.complete("x", category="c", track="t", start=1.0, end=4.0)
    tracer.complete("y", category="d", track="t", start=0.0, end=1.0)
    tracer.begin("x", category="c", track="t")  # open: excluded
    spans = tracer.closed_spans(category="c", name="x")
    assert spans == [b, a]  # (start, span_id) order


def _traced_rescale():
    job = build_keyed_job()
    telemetry = job.enable_telemetry()
    drive(job, until=25.0)
    job.run(until=5.0)
    controller = DRRSController(job)
    done = controller.request_rescale("agg", 4)
    job.run(until=30.0)
    assert done.triggered
    return job, controller, telemetry


def test_identically_seeded_runs_trace_identically():
    job1, _c1, tel1 = _traced_rescale()
    job2, _c2, tel2 = _traced_rescale()
    assert job1.sim.events_processed == job2.sim.events_processed
    assert to_jsonl_lines(tel1) == to_jsonl_lines(tel2)
    assert tel1.registry.snapshot() == tel2.registry.snapshot()


def test_telemetry_does_not_perturb_simulation():
    """Bit-identical determinism: enabling the tracer (without the opt-in
    sampler) changes neither the event count nor any delivered record."""
    def run(enable):
        job = build_keyed_job()
        if enable:
            job.enable_telemetry()
        drive(job, until=25.0)
        job.run(until=5.0)
        controller = DRRSController(job)
        controller.request_rescale("agg", 4)
        job.run(until=30.0)
        return job

    plain, traced = run(False), run(True)
    assert plain.sim.events_processed == traced.sim.events_processed
    assert (plain.metrics.total_sink_input()
            == traced.metrics.total_sink_input())
    assert plain.metrics.latency_samples == traced.metrics.latency_samples


def test_kernel_dispatch_counter_matches_events_processed():
    # events_processed counts only dispatches that did work: superseded
    # schedule positions back themselves out via Simulator.discount(),
    # which the probe mirrors with its own (monotone) counter.
    job, _controller, telemetry = _traced_rescale()
    snap = telemetry.registry.snapshot()
    dispatched = snap["sim.events_dispatched"]
    discounted = snap.get("sim.events_discounted", 0)
    assert dispatched - discounted == job.sim.events_processed


def test_sampler_is_opt_in_and_samples():
    job = build_keyed_job()
    telemetry = job.enable_telemetry(sample_interval=0.5)
    drive(job, until=4.0)
    job.run(until=5.0)
    samples = telemetry.tracer.events_named("queue.sample")
    assert samples, "sampler produced no queue.sample instants"
    assert {e.category for e in samples} == {"sampling"}


def test_sampler_reports_a_chain_members_depth_as_its_heads():
    """``pre -> s0 -> s1`` is one task reading ``pre``'s inbox: under
    backlog the members' gauge and ``queue.sample`` show that inbox, as
    ``instance_rows`` does — not their own (absent) input channels."""
    job = build_tie_job(
        stages=2, sources=1, aggs=1, latency=1e-4, bandwidth=1e9,
        services=(1e-5, 0.0, 0.0), plane="batched", op_head=True,
        stateless=[(PassThroughLogic, 2e-3), (PassThroughLogic, 0.0)])
    telemetry = job.enable_telemetry(sample_interval=0.01)
    source = job.sources()[0]
    for i in range(200):
        source.offer(Record(key=f"k{i}", count=1, size_bytes=100.0))
    job.run(until=0.0105)                # one sample, taken at 0.01
    chain = ["pre[0]", "s0[0]", "s1[0]"]
    rows = {row["instance"]: row["inbox_depth"] for row in instance_rows(job)}
    assert rows["pre[0]"] > 0
    assert [rows[name] for name in chain] == [rows["pre[0]"]] * 3
    gauges = [telemetry.registry.gauge("instance.inbox_depth",
                                       instance=name).value for name in chain]
    assert gauges[0] > 0 and gauges == [gauges[0]] * 3
    sampled = {e.track: e.attrs["inbox_depth"]
               for e in telemetry.tracer.events_named("queue.sample")}
    assert [sampled[name] for name in chain] == gauges
