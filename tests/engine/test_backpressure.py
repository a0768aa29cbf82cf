"""End-to-end backpressure: a slow stage throttles everything upstream."""

from repro.engine import (JobGraph, KeyedReduceLogic, OperatorSpec,
                          Partitioning, Record, StreamJob)


def slow_sink_job(sink_service=0.01):
    graph = JobGraph("bp", num_key_groups=8)
    graph.add_source("src", parallelism=1, service_time=1e-5)
    graph.add_operator(OperatorSpec(
        "agg",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count),
        parallelism=1, service_time=1e-4, keyed=True))
    graph.add_sink("sink", service_time=sink_service)
    graph.connect("src", "agg", Partitioning.HASH)
    graph.connect("agg", "sink", Partitioning.FORWARD)
    return StreamJob(graph).build()


def feed(job, rate_gap=0.002, until=20.0):
    def gen():
        src = job.sources()[0]
        i = 0
        while job.sim.now < until:
            src.offer(Record(key=f"k{i % 16}", event_time=job.sim.now,
                             count=1))
            i += 1
            yield job.sim.timeout(rate_gap)
    job.sim.spawn(gen())


def test_slow_sink_throttles_source():
    """Offered 500 rec/s, sink capacity 100 rec/s: the source must slow to
    the sink's rate — credit-based flow control propagates end to end."""
    job = slow_sink_job(sink_service=0.01)
    feed(job, rate_gap=0.002, until=20.0)
    job.run(until=20.0)
    emitted = job.metrics.total_source_output(start=10.0, end=20.0)
    assert emitted <= 110 * 10  # ~sink capacity, small slack


def test_backlog_accumulates_at_admission_queue():
    job = slow_sink_job(sink_service=0.01)
    feed(job, rate_gap=0.002, until=20.0)
    job.run(until=20.0)
    backlog = job.sources()[0].backlog
    assert backlog > 1000  # offered - consumed piled up at the Kafka stand-in


def test_fast_sink_keeps_up():
    job = slow_sink_job(sink_service=1e-5)
    feed(job, rate_gap=0.002, until=10.0)
    job.run(until=11.0)
    assert job.sources()[0].backlog < 10
    assert job.sink_logic().records_in == job.metrics.total_source_output()


def test_backpressure_shows_in_marker_latency():
    """Latency markers pass through the admission queue, so backpressure
    appears in end-to-end latency (the §V-A measurement property)."""
    from repro.engine import LatencyMarker

    job = slow_sink_job(sink_service=0.01)

    def gen():
        src = job.sources()[0]
        i = 0
        while job.sim.now < 15.0:
            src.offer(Record(key=f"k{i % 16}", event_time=job.sim.now,
                             count=1))
            if i % 20 == 0:
                src.offer(LatencyMarker(key=f"k{i % 16}"))
            i += 1
            yield job.sim.timeout(0.002)

    job.sim.spawn(gen())
    job.run(until=25.0)
    early = job.metrics.latency_stats(0.0, 3.0)
    late = job.metrics.latency_stats(10.0, 25.0)
    assert late["mean"] > early["mean"] * 3  # latency grows with backlog


def test_release_of_backpressure_flushes_backlog():
    """Throughput overshoots after the bottleneck is relieved (the Fig. 11
    overcompensation cycle)."""
    job = slow_sink_job(sink_service=0.005)
    feed(job, rate_gap=0.002, until=10.0)
    job.run(until=8.0)
    sink = job.instances("sink")[0]
    sink.spec.service_time = 1e-5  # bottleneck relieved
    job.run(until=20.0)
    series = job.metrics.throughput_series(window=1.0, end=20.0)
    before = max(v for t, v in series if t < 8.0)
    after = max(v for t, v in series if 8.0 <= t < 15.0)
    assert after > before * 1.5  # flush overshoot
