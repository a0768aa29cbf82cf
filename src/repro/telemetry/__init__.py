"""Telemetry: metrics registry, structured span tracing, trace exporters.

The runtime-observability subsystem.  It answers *where time goes* — per
DRRS phase, per operator instance, per channel — the way production stream
processors do, and is the substrate every performance investigation in this
repo builds on.  See ``docs/observability.md`` for the full design.

Quick start::

    job = workload.build()
    tel = job.enable_telemetry()          # zero overhead until this call
    job.run(until=30)
    DRRSController(job).request_rescale("agg", 12)
    job.run(until=60)

    from repro.telemetry import write_chrome_trace, migration_breakdown
    write_chrome_trace(tel, "trace.json")  # open in ui.perfetto.dev
    print(migration_breakdown(tel)["cumulative_propagation_delay_s"])
"""

from .exporters import (phase_summary_table, to_chrome_trace,
                        to_jsonl_lines, write_chrome_trace, write_jsonl)
from .phases import migration_breakdown, phase_rows
from .registry import Counter, Gauge, MetricsRegistry
from .tracer import InstantEvent, Span, Telemetry, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Span",
    "InstantEvent",
    "Tracer",
    "Telemetry",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_jsonl_lines",
    "write_jsonl",
    "phase_summary_table",
    "phase_rows",
    "migration_breakdown",
]
