"""Job introspection: structured snapshots of a running dataflow.

Answers the operational questions every scaling decision needs — who is
busy, where queues are building, where state lives — as plain dict rows,
renderable with :func:`repro.experiments.report.format_table` or exported
as JSON.  The CLI's ``workload --inspect`` and the policies' debugging all
build on this.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .operators import OperatorInstance
from .runtime import SourceInstance, StreamJob

__all__ = ["instance_rows", "operator_rows", "channel_rows",
           "hot_instance", "job_summary"]


def instance_rows(job: StreamJob, operator: Optional[str] = None,
                  since: float = 0.0) -> List[Dict]:
    """One row per operator instance: load, queues, state.

    ``since`` turns ``busy_fraction`` into a rate over ``now - since``
    rather than the whole run.  ``chain_head`` names a chain member's
    head; ``inbox_depth`` is :meth:`OperatorInstance.inbox_depth`, the
    work waiting for the instance's task.
    """
    horizon = max(job.sim.now - since, 1e-9)
    rows = []
    names = [operator] if operator else list(job.graph.operators)
    for name in names:
        for inst in job.instances(name):
            head = inst.chain_head
            inbox = inst.inbox_depth()
            outbox = sum(ch.backlog for ch in inst.router.all_channels())
            row = {
                "instance": inst.name,
                "node": inst.node.name,
                "chain_head": head.name if head is not None else None,
                "running": inst.running,
                "busy_fraction": min(inst.busy_seconds / horizon, 1.0),
                "records_processed": inst.records_processed,
                "inbox_depth": inbox,
                "outbox_backlog": outbox,
                "state_mb": inst.state.total_bytes() / 1e6,
                "key_groups": len(inst.state.owned_groups()),
                "suspended_s": inst.suspended_seconds,
            }
            if isinstance(inst, SourceInstance):
                row["admission_backlog"] = inst.backlog
            rows.append(row)
    return rows


def operator_rows(job: StreamJob, since: float = 0.0) -> List[Dict]:
    """One row per operator: aggregated over its instances."""
    rows = []
    for name in job.graph.operators:
        per_instance = instance_rows(job, operator=name, since=since)
        if not per_instance:
            continue
        busy = [r["busy_fraction"] for r in per_instance]
        head = job.instances(name)[0].chain_head
        rows.append({
            "operator": name,
            "parallelism": len(per_instance),
            "chain_head": head.spec.name if head is not None else None,
            "busy_mean": sum(busy) / len(busy),
            "busy_max": max(busy),
            "inbox_depth": sum(r["inbox_depth"] for r in per_instance),
            "state_mb": sum(r["state_mb"] for r in per_instance),
            "records_processed": sum(r["records_processed"]
                                     for r in per_instance),
            "suspended_s": sum(r["suspended_s"] for r in per_instance),
        })
    return rows


def channel_rows(job: StreamJob, min_backlog: int = 1) -> List[Dict]:
    """Channels with at least ``min_backlog`` unconsumed elements —
    the congestion map."""
    rows = []
    for inst in job.all_instances():
        for edge in inst.router.edges:
            for channel in edge.channels:
                if channel.backlog >= min_backlog:
                    rows.append({
                        "channel": channel.name,
                        "outbox": len(channel.outbox),
                        "in_flight": channel._in_flight,
                        "inbox": (len(channel.input_channel)
                                  if channel.input_channel else 0),
                        "credits": channel.credits,
                    })
    rows.sort(key=lambda r: -(r["outbox"] + r["in_flight"] + r["inbox"]))
    return rows


def hot_instance(job: StreamJob, operator: str,
                 since: float = 0.0) -> Dict:
    """The busiest instance of an operator (skew diagnosis)."""
    rows = instance_rows(job, operator=operator, since=since)
    if not rows:
        raise ValueError(f"operator {operator!r} has no instances")
    return max(rows, key=lambda r: r["busy_fraction"])


def job_summary(job: StreamJob) -> Dict:
    """One-row health summary of the whole job."""
    sources = job.sources()
    return {
        "sim_time_s": job.sim.now,
        "kernel_events": job.sim.events_processed,
        "record_plane": job.config.record_plane,
        "plane_collapses": job.plane_collapses,
        "operators": len(job.graph.operators),
        "instances": len(job.all_instances()),
        "records_generated": job.metrics.total_source_output(),
        "records_delivered": job.metrics.total_sink_input(),
        "admission_backlog": sum(s.backlog for s in sources),
        "total_state_mb": sum(
            inst.state.total_bytes() for inst in job.all_instances()) / 1e6,
        "congested_channels": len(channel_rows(job, min_backlog=8)),
    }
