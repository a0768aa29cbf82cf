"""Job introspection: structured snapshots of a running dataflow.

Answers the operational questions every scaling decision needs — who is
busy, where queues are building, where state lives — as plain dict rows,
renderable with :func:`repro.experiments.report.format_table` or exported
as JSON.  The CLI's ``workload --inspect`` builds on this.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .runtime import SourceInstance, StreamJob

__all__ = ["instance_rows", "operator_rows"]


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
