"""Golden-trace capture: a semantic fingerprint of one simulated run.

The perf work on the DES kernel and the record plane (kernel fast paths,
drainer batching, routing caches) must never change *simulated* behaviour:
same timestamps, same order on timestamp ties, same metrics.  This module
captures everything observable about a run — latency samples with exact
float values, source/sink event sequences, per-instance counters and the
full :class:`~repro.scaling.base.ScalingMetrics` content — into a
JSON-serialisable document.  A golden file recorded at the pre-optimization
commit is committed under ``tests/golden/``; the regression test re-captures
and compares for exact equality.

Kernel event *counts* are deliberately excluded from the semantic digest:
optimizations may remove internal bookkeeping events (they are reported
under ``info`` instead), but they may not move or reorder anything
observable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from ..engine.runtime import StreamJob
from .harness import ExperimentConfig, run_experiment
from .scenarios import QUICK, make_workload

__all__ = ["capture_q7_trace", "scaling_metrics_digest"]


def _digest(obj: Any) -> str:
    """SHA-256 over the repr of a structure of exact floats/ints/strs."""
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def scaling_metrics_digest(metrics) -> Optional[Dict[str, Any]]:
    """Exact, JSON-safe dump of one ScalingMetrics (None passes through)."""
    if metrics is None:
        return None
    return {
        "started_at": metrics.started_at,
        "finished_at": metrics.finished_at,
        "duration": metrics.duration,
        "injections": {str(k): v
                       for k, v in sorted(metrics.injections.items(),
                                          key=lambda kv: str(kv[0]))},
        "first_migration": {str(k): v
                            for k, v in sorted(metrics.first_migration.items(),
                                               key=lambda kv: str(kv[0]))},
        "migration_started": {str(k): v for k, v
                              in sorted(metrics.migration_started.items())},
        "migration_completed": {str(k): v for k, v
                                in sorted(metrics.migration_completed.items())},
        "suspensions": [[name, start, end]
                        for name, start, end in metrics.suspensions],
        "remigrations": metrics.remigrations,
        "records_rerouted": metrics.records_rerouted,
        "cumulative_propagation_delay":
            metrics.cumulative_propagation_delay(),
        "average_dependency_overhead":
            metrics.average_dependency_overhead(),
        "total_suspension": metrics.total_suspension(),
    }


def _operator_digest(job: StreamJob) -> Dict[str, Dict[str, Any]]:
    rows = {}
    for instance in job.all_instances():
        rows[instance.name] = {
            "records_processed": instance.records_processed,
            "busy_seconds": instance.busy_seconds,
            "suspended_seconds": instance.suspended_seconds,
            "watermark": (None if instance.current_watermark == float("-inf")
                          else instance.current_watermark),
        }
    return dict(sorted(rows.items()))


def capture_q7_trace(system: Optional[str] = "drrs",
                     warmup: float = 10.0,
                     post: float = 25.0,
                     new_parallelism: int = 12,
                     telemetry: bool = False,
                     record_plane: Optional[str] = None,
                     scheduler: Optional[str] = None) -> Dict[str, Any]:
    """Run a NEXMark Q7 scenario (optionally under a DRRS rescale) and
    return its semantic trace document.

    ``record_plane`` selects "batched"/"single" and
    ``scheduler`` selects "heap"/"calendar" (None = engine default); the
    semantic subtree must be identical for every combination.
    """
    from .figures import controller_factory

    workload = make_workload("q7", QUICK)
    config = ExperimentConfig(
        workload=workload,
        controller_factory=(controller_factory(system) if system else None),
        new_parallelism=new_parallelism,
        warmup=warmup,
        post_duration=post,
        record_plane=record_plane,
        scheduler=scheduler,
        label=f"golden-q7/{system or 'no-scale'}",
        telemetry=telemetry)
    result = run_experiment(config)
    job = result.job
    metrics = job.metrics
    latency = metrics.latency_samples
    doc = {
        "schema": "repro-golden/1",
        "scenario": {"workload": "q7", "system": system or "no-scale",
                     "warmup": warmup, "post": post,
                     "new_parallelism": new_parallelism},
        "semantic": {
            "source_records": result.source_records,
            "sink_records": result.sink_records,
            "end_time": job.sim.now,
            "latency_count": len(latency),
            "latency_head": [list(sample) for sample in latency[:20]],
            "latency_digest": _digest(latency),
            "source_events_digest": _digest(list(metrics.source_events())),
            "sink_events_digest": _digest(list(metrics.sink_events())),
            "operators": _operator_digest(job),
            "scaling": scaling_metrics_digest(result.scaling_metrics),
            "scaling_period": result.scaling_period,
        },
        # Diagnostics only — excluded from golden equality (perf work may
        # legitimately remove internal kernel bookkeeping events).
        "info": {
            "kernel_events": job.sim.events_processed,
            "record_plane": job.config.record_plane,
            "max_batch_size": job.config.max_batch_size,
            "scheduler": job.sim.scheduler,
        },
    }
    return doc


def main(argv=None) -> int:  # pragma: no cover - capture utility
    import argparse

    parser = argparse.ArgumentParser(
        description="capture a golden semantic trace")
    parser.add_argument("--system", default="drrs")
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    system = None if args.system == "no-scale" else args.system
    doc = capture_q7_trace(system=system)
    with open(args.output, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"[golden saved to {args.output}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
