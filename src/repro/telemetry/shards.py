"""Shard sync-protocol telemetry: counters and blocked-wait traces.

The sharded kernel (:mod:`repro.simulation.sharded`) runs its workers in
separate processes, outside the in-process tracer — so each worker ships
its synchronization-protocol counters (null messages sent/suppressed,
grant rounds, cut-edge bytes, blocked waits) home in its result bundle
instead of writing spans live.  This module turns those bundles into the
same artefact shapes the rest of the telemetry subsystem produces:

* :func:`shard_sync_events` / :func:`to_shard_sync_trace` — a Chrome
  Trace Event Format document with one thread per shard.  Counter totals
  render as one instant event per shard; every recorded blocked-wait
  interval renders as a ``blocked-wait`` span, so the synchronization
  stalls line up visually across the pipeline (open in
  https://ui.perfetto.dev).
* :func:`write_shard_sync_trace` — the file-writing convenience used by
  ``repro shard-check --trace-out``.

Times in the trace are *wall* seconds since worker start (synchronization
stalls are a host-time phenomenon; simulated time is the thing being
synchronized), which is also why the per-shard tracks need no cross-shard
clock alignment beyond "all workers fork together".
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

__all__ = ["shard_sync_events", "to_shard_sync_trace",
           "write_shard_sync_trace"]

#: Wall seconds → trace microseconds (the Trace Event Format unit).
_US = 1e6

#: Counter keys rendered into each shard's summary instant event, in
#: display order.  ``blocked_intervals`` is rendered as spans instead.
_COUNTER_KEYS = ("null_sent", "null_suppressed",
                 "grant_rounds", "frames_sent", "msgs_sent",
                 "bytes_shipped", "spills", "batch_fallbacks",
                 "blocked_waits", "blocked_wait_s", "writer_full_wait_s",
                 "quantum_initial", "quantum_final", "quantum_max",
                 "quantum_widenings", "quantum_shrinks")


def shard_sync_events(sync_per_shard: Sequence[Dict[str, Any]]
                      ) -> List[Dict]:
    """Trace events for a sharded run's sync bundles, one thread per shard.

    ``sync_per_shard`` is :attr:`ShardedRunResult.sync_per_shard` — the
    ``sync`` dict each worker returned (shard id = list index).  Events
    are deterministic: threads in shard order, spans in interval order.
    """
    pid = 1
    events: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": pid,
        "args": {"name": "repro-shards"},
    }]
    for sid, sync in enumerate(sync_per_shard):
        tid = sid + 1
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": f"shard-{sid}"}})
        events.append({"name": "thread_sort_index", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"sort_index": tid}})
        summary = {k: sync[k] for k in _COUNTER_KEYS if k in sync}
        events.append({"name": "sync-counters", "cat": "shard-sync",
                       "ph": "i", "s": "t", "ts": 0.0,
                       "pid": pid, "tid": tid, "args": summary})
        for start, end in sync.get("blocked_intervals", ()):
            events.append({
                "name": "blocked-wait", "cat": "shard-sync", "ph": "X",
                "ts": float(start) * _US,
                "dur": max(0.0, float(end) - float(start)) * _US,
                "pid": pid, "tid": tid, "args": {},
            })
    return events


def to_shard_sync_trace(sync_per_shard: Sequence[Dict[str, Any]]
                        ) -> Dict[str, Any]:
    """A full Chrome Trace Event Format document (see module docstring)."""
    return {"traceEvents": shard_sync_events(sync_per_shard),
            "displayTimeUnit": "ms"}


def write_shard_sync_trace(sync_per_shard: Sequence[Dict[str, Any]],
                           path: str) -> str:
    with open(path, "w") as f:
        json.dump(to_shard_sync_trace(sync_per_shard), f, indent=1)
        f.write("\n")
    return path
