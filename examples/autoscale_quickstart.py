#!/usr/bin/env python3
"""Quickstart for the elasticity control plane (`repro.autoscale`).

Builds a keyed pipeline, drives it with a traffic ramp, and lets the
closed-loop :class:`AutoscaleController` size the aggregator by itself:
``ScalingSignals`` samples busy fractions / queue depths / source rate
and EWMA-smooths them, a pluggable policy turns them into parallelism
targets, and the controller actuates each decision through DRRS — on the
fly, under live traffic, serialized against any other control-plane
operation.  Every step lands in an auditable decision log.

This is the programmatic face of the same loop the diurnal-day
experiment runs at scale (``python -m repro autoscale --scale smoke``).

Run:  python examples/autoscale_quickstart.py
"""

from repro import DRRSController, JobGraph, StreamJob
from repro.autoscale import AutoscaleController, PredictivePolicy
from repro.engine import (KeyedReduceLogic, LatencyMarker, OperatorSpec,
                          Partitioning, Record)


def build_job() -> StreamJob:
    graph = JobGraph("autoscale-quickstart", num_key_groups=32)
    graph.add_source("source", parallelism=1, service_time=5e-5)
    graph.add_operator(OperatorSpec(
        "aggregator",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count),
        parallelism=2,
        service_time=2e-3,
        keyed=True,
        initial_state_bytes_per_group=2e6))
    graph.add_sink("sink")
    graph.connect("source", "aggregator", Partitioning.HASH)
    graph.connect("aggregator", "sink", Partitioning.FORWARD)
    job = StreamJob(graph).build()
    job.enable_telemetry()   # the signals publish autoscale.* gauges
    return job


def ramping_load(job: StreamJob, until: float):
    """400 rec/s at night, a linear ramp to 1400 rec/s, back down."""
    def gen():
        source = job.sources()[0]
        tick = 0
        while job.sim.now < until:
            t = job.sim.now
            if t < 20.0:
                rate = 400.0
            elif t < 40.0:
                rate = 400.0 + (t - 20.0) / 20.0 * 1000.0   # the ramp
            elif t < 70.0:
                rate = 1400.0
            else:
                rate = 400.0
            source.offer(Record(key=f"k{tick % 24}",
                                event_time=t, count=1))
            if tick % 10 == 0:
                source.offer(LatencyMarker(key=f"k{tick % 24}"))
            tick += 1
            yield job.sim.timeout(1.0 / rate)

    job.sim.spawn(gen())


def main():
    job = build_job()
    ramping_load(job, until=95.0)

    drrs = DRRSController(job)
    # The predictive policy fits a trend to the smoothed arrival rate and
    # scales *ahead* of the ramp, sizing from a self-calibrated
    # work-per-record estimate; when the trend is flat it degrades to the
    # reactive utilisation thresholds.
    policy = PredictivePolicy(
        target=0.6, high=0.8, low=0.35, lead_time=12.0,
        min_parallelism=1, max_parallelism=8,
        cooldown=8.0, hold_ticks=2)
    auto = AutoscaleController(
        job, drrs, "aggregator", policy, interval=2.0, warmup=2.0)
    auto.start()

    print("running a 100-second day: ramp at t=20, peak to t=70, then quiet;")
    print("the controller samples every 2 s and rescales via DRRS...\n")
    job.run(until=100.0)

    summary = auto.summary()
    print("decision log:")
    for entry in summary["decisions"]:
        t, event = entry["t"], entry["event"]
        if event == "decide":
            print(f"  t={t:6.2f}s  decide   {entry['from']} -> "
                  f"{entry['target']}  ({entry['why']})")
        elif event == "complete":
            print(f"  t={t:6.2f}s  complete -> {entry['target']} "
                  f"in {entry['took']:.2f} s")
        elif event == "defer":
            print(f"  t={t:6.2f}s  defer    ({entry['reason']})")
        elif event == "failed":
            print(f"  t={t:6.2f}s  FAILED   ({entry['error']})")

    print(f"\nrescales: {summary['rescales_completed']} completed, "
          f"{summary['rescales_failed']} failed, "
          f"{summary['decisions_deferred']} decisions deferred")
    print(f"instance-seconds consumed: {summary['instance_seconds']:.1f} "
          f"(static 8-wide would burn {8 * 100.0:.0f})")
    print(f"final parallelism: {summary['final_parallelism']}")
    peak = job.metrics.latency_stats(40.0, 70.0)
    print(f"latency through the peak: mean {peak['mean'] * 1e3:.0f} ms, "
          f"p99 {peak['p99'] * 1e3:.0f} ms")


if __name__ == "__main__":
    main()
