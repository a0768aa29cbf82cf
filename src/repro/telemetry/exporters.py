"""Trace exporters: Chrome trace-event JSON, JSONL, and summary tables.

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format consumed by Perfetto (https://ui.perfetto.dev) and Chromium's
  ``about:tracing``.  Every tracer *track* (operator instance, subscale,
  coordinator lane) becomes one named thread inside a single ``repro-sim``
  process, so a DRRS rescale renders as nested phase bars per instance.
* :func:`write_jsonl` — one JSON object per span/event, in deterministic
  order, for ad-hoc analysis (``jq``, pandas).
* :func:`phase_summary_table` — human-readable per-phase aggregate built on
  :func:`repro.experiments.report.format_table`.

All exports are pure functions of the telemetry contents: exporting twice,
or exporting after more simulation, never mutates the sink.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .tracer import Telemetry

__all__ = ["to_chrome_trace", "write_chrome_trace", "to_jsonl_lines",
           "write_jsonl", "phase_summary_table"]

#: Simulated seconds → trace microseconds (the Trace Event Format unit).
_US = 1e6


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


def to_chrome_trace(telemetry: Telemetry,
                    process_name: str = "repro-sim") -> Dict:
    """Build a Trace Event Format document from a Telemetry.

    Tracks are assigned thread ids in sorted-name order, so the document is
    deterministic for identically-seeded runs.
    """
    tracer = telemetry.tracer
    pid = 1
    tids = {track: i + 1 for i, track in enumerate(tracer.tracks())}
    events: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": pid,
        "args": {"name": process_name},
    }]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": track or "(main)"}})
        events.append({"name": "thread_sort_index", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"sort_index": tid}})
    for span in sorted((s for s in tracer.spans if s.closed),
                       key=lambda s: (s.start, s.span_id)):
        events.append({
            "name": span.name,
            "cat": span.category or "default",
            "ph": "X",
            "ts": span.start * _US,
            "dur": span.duration * _US,
            "pid": pid,
            "tid": tids[span.track],
            "args": _json_safe(span.attrs),
        })
    for event in sorted(tracer.events, key=lambda e: (e.time, e.event_id)):
        events.append({
            "name": event.name,
            "cat": event.category or "default",
            "ph": "i",
            "s": "t",
            "ts": event.time * _US,
            "pid": pid,
            "tid": tids[event.track],
            "args": _json_safe(event.attrs),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "metrics": telemetry.registry.snapshot(),
            "droppedRecords": tracer.dropped}


def write_chrome_trace(telemetry: Telemetry, path: str,
                       process_name: str = "repro-sim") -> str:
    with open(path, "w") as f:
        json.dump(to_chrome_trace(telemetry, process_name=process_name), f,
                  indent=1)
        f.write("\n")
    return path


def to_jsonl_lines(telemetry: Telemetry) -> List[str]:
    """One compact JSON object per record: spans first, then events,
    each in (time, id) order."""
    tracer = telemetry.tracer
    lines = []
    for span in sorted((s for s in tracer.spans if s.closed),
                       key=lambda s: (s.start, s.span_id)):
        lines.append(json.dumps({
            "kind": "span", "name": span.name, "cat": span.category,
            "track": span.track, "start": span.start, "end": span.end,
            "parent_id": span.parent_id,
            "attrs": _json_safe(span.attrs)}, sort_keys=True))
    for event in sorted(tracer.events, key=lambda e: (e.time, e.event_id)):
        lines.append(json.dumps({
            "kind": "instant", "name": event.name, "cat": event.category,
            "track": event.track, "time": event.time,
            "attrs": _json_safe(event.attrs)}, sort_keys=True))
    return lines


def write_jsonl(telemetry: Telemetry, path: str) -> str:
    with open(path, "w") as f:
        for line in to_jsonl_lines(telemetry):
            f.write(line + "\n")
    return path


def phase_summary_table(telemetry: Telemetry,
                        title: str = "Telemetry phase summary",
                        category: Optional[str] = None) -> str:
    """Aggregate spans by (category, name) into an aligned text table."""
    from ..experiments.report import format_table
    from .phases import phase_rows
    rows = phase_rows(telemetry, category=category)
    return format_table(
        rows, columns=["category", "name", "count", "total_s", "mean_s",
                       "min_s", "max_s"],
        title=title)
