"""Safety invariants a chaos run must satisfy after recovery.

These are the properties §IV-C's fault-tolerance coexistence promises,
phrased as checks over a quiesced job (run the simulation long enough for
retries, replay and in-flight data to drain first):

1. **Exactly-once keyed state** — every keyed operator's merged state
   equals what a single-threaded oracle would compute from the records
   the generators produced, regardless of crashes, rollbacks and retries
   in between (:func:`check_exactly_once_state`).
2. **Unique ownership** — every key-group is held processable by exactly
   one instance, the one the authoritative assignment names, and no
   migration residue (``INCOMING``/``INACTIVE`` stubs) survives
   (:func:`check_unique_ownership`).
3. **Routing consistency** — every hash-partitioned edge into a keyed
   operator routes every key-group to the assignment's owner
   (:func:`check_routing_consistency`).
4. **Watermark monotonicity** — per-instance watermarks never regress,
   *except* across a recovery restore, which legitimately rewinds them
   (:class:`WatermarkMonitor`; it samples, so only use it in chaos runs
   where bit-identity with unmonitored runs does not matter).

5. **Backend equivalence** — a run's outcome must not depend on the
   keyed-state backend: the dict and changelog backends must produce
   identical *semantic traces* (final keyed state, per-key final sink
   values, final watermarks — everything except timing, which legitimately
   differs because changelog checkpoints cost a constant on the barrier
   path) (:func:`semantic_trace` / :func:`check_backend_equivalence`).

Each check returns a list of human-readable violation strings — empty
means the invariant holds.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from ..engine.graph import Partitioning
from ..engine.records import RecordBatch
from ..engine.state import StateStatus

__all__ = [
    "check_exactly_once_state",
    "check_unique_ownership",
    "check_routing_consistency",
    "check_carrier_counts",
    "check_all",
    "semantic_trace",
    "check_backend_equivalence",
    "WatermarkMonitor",
]

#: Statuses under which a key-group's bytes actually live on an instance.
_HOLDS_BYTES = (StateStatus.LOCAL, StateStatus.PENDING_OUT,
                StateStatus.INACTIVE)


def check_exactly_once_state(job, op_name: str,
                             oracle: Dict) -> List[str]:
    """Merged keyed state of ``op_name`` equals the oracle exactly.

    ``oracle`` maps key → expected value (what a single-threaded run over
    the produced records would leave in the reduce state).  Reports keys
    that are missing, wrong (lost or double-counted records), spurious,
    or present on more than one instance.
    """
    violations: List[str] = []
    merged: Dict = {}
    holders: Dict = {}
    for instance in job.instances(op_name):
        for group in instance.state.groups():
            if group.status not in _HOLDS_BYTES:
                continue
            for key, value in group.entries.items():
                if key in merged:
                    violations.append(
                        f"{op_name}: key {key!r} held by both "
                        f"{holders[key]} and {instance.name}")
                merged[key] = value
                holders[key] = instance.name
    for key, expected in oracle.items():
        actual = merged.get(key)
        if actual != expected:
            violations.append(
                f"{op_name}: key {key!r} = {actual!r}, oracle says "
                f"{expected!r}")
    for key in merged:
        if key not in oracle:
            violations.append(
                f"{op_name}: spurious key {key!r} = {merged[key]!r}")
    return violations


def check_unique_ownership(job, op_name: str) -> List[str]:
    """Every key-group processable on exactly the assigned instance."""
    violations: List[str] = []
    assignment = job.assignments[op_name].as_dict()
    instances = job.instances(op_name)
    processable: Dict[int, List[int]] = {}
    for instance in instances:
        for group in instance.state.groups():
            if group.status in (StateStatus.INCOMING,
                                StateStatus.INACTIVE):
                violations.append(
                    f"{op_name}[{instance.index}]: key-group "
                    f"{group.key_group} stuck {group.status.name} "
                    "(migration residue)")
            if group.processable:
                processable.setdefault(group.key_group,
                                       []).append(instance.index)
    for kg, owner in assignment.items():
        holders = processable.get(kg, [])
        if len(holders) != 1:
            violations.append(
                f"{op_name}: key-group {kg} processable on "
                f"{holders or 'no instance'} (want exactly one)")
        elif holders[0] != owner:
            violations.append(
                f"{op_name}: key-group {kg} lives on instance "
                f"{holders[0]} but the assignment names {owner}")
    for kg in processable:
        if kg not in assignment:
            violations.append(
                f"{op_name}: key-group {kg} held but not assigned")
    return violations


def check_routing_consistency(job, op_name: str) -> List[str]:
    """Hash edges into ``op_name`` route every group to its owner."""
    violations: List[str] = []
    assignment = job.assignments[op_name].as_dict()
    for sender, edge in job.senders_to(op_name):
        if edge.partitioning is not Partitioning.HASH:
            continue
        for kg, owner in assignment.items():
            routed = edge.routing_table.get(kg)
            if routed != owner:
                violations.append(
                    f"edge {sender.name}->{op_name}: key-group {kg} "
                    f"routed to {routed}, assignment names {owner}")
    return violations


def check_carrier_counts(job, op_name: str) -> List[str]:
    """Every input channel's ``_nbatches`` equals the batch carriers
    actually in its queue (queue surgery must go through the plane)."""
    violations: List[str] = []
    for instance in job.instances(op_name):
        for channel in instance.input_channels:
            queued = sum(element.__class__ is RecordBatch
                         for element in channel.queue)
            if channel._nbatches != queued:
                violations.append(
                    f"{channel.name}: _nbatches={channel._nbatches} but "
                    f"{queued} carriers queued")
    return violations


def check_all(job, op_name: str,
              oracle: Optional[Dict] = None) -> List[str]:
    """Run every structural check (and the oracle check when given)."""
    violations = check_unique_ownership(job, op_name)
    violations += check_routing_consistency(job, op_name)
    violations += check_carrier_counts(job, op_name)
    if oracle is not None:
        violations += check_exactly_once_state(job, op_name, oracle)
    return violations


def semantic_trace(job, keyed_ops: Optional[List[str]] = None) -> Dict:
    """The timing-free outcome of a quiesced run, for cross-run diffing.

    Captures, per keyed operator, the merged final state (sorted
    ``(key_group, sorted entries)``) with a stable digest; per sink
    instance, the *last* collected value for each key (at-least-once
    replay may duplicate intermediate emissions, but per-key updates are
    FIFO-ordered so the final one is the converged value); and each
    instance's final watermark.  Two runs of the same scenario under
    different state backends must produce identical traces —
    event *timing* differs (that is the point of the changelog backend),
    the semantics must not.
    """
    if keyed_ops is None:
        keyed_ops = sorted(op for op in job.assignments)
    state: Dict[str, list] = {}
    for op_name in keyed_ops:
        groups = []
        for instance in job.instances(op_name):
            for group in instance.state.groups():
                if group.status not in _HOLDS_BYTES:
                    continue
                entries = sorted((repr(k), repr(v))
                                 for k, v in group.entries.items())
                groups.append((group.key_group, entries))
        state[op_name] = sorted(groups)
    sinks: Dict[str, list] = {}
    for instance in job.all_instances():
        collected = getattr(instance.logic, "collected", None)
        if collected is None:
            continue
        last: Dict = {}
        for record in collected:
            key = getattr(record, "key", None)
            value = getattr(record, "value", record)
            last[repr(key)] = repr(value)
        sinks[instance.name] = sorted(last.items())
    watermarks = {}
    for instance in job.all_instances():
        wm = instance.current_watermark
        watermarks[instance.name] = repr(wm)
    trace = {"state": state, "sinks": sinks, "watermarks": watermarks}
    canonical = "|".join((repr(sorted(state.items())),
                          repr(sorted(sinks.items())),
                          repr(sorted(watermarks.items()))))
    trace["digest"] = hashlib.sha256(canonical.encode()).hexdigest()
    return trace


def check_backend_equivalence(trace_a: Dict, trace_b: Dict,
                              label_a: str = "dict",
                              label_b: str = "changelog") -> List[str]:
    """Diff two semantic traces; violations name what diverged where."""
    violations: List[str] = []
    for section in ("state", "sinks", "watermarks"):
        part_a, part_b = trace_a.get(section, {}), trace_b.get(section, {})
        for name in sorted(set(part_a) | set(part_b)):
            if name not in part_a:
                violations.append(
                    f"{section}[{name}]: present under {label_b} only")
            elif name not in part_b:
                violations.append(
                    f"{section}[{name}]: present under {label_a} only")
            elif part_a[name] != part_b[name]:
                violations.append(
                    f"{section}[{name}]: {label_a} and {label_b} "
                    f"disagree ({part_a[name]!r} != {part_b[name]!r})")
    if not violations and trace_a.get("digest") != trace_b.get("digest"):
        violations.append(
            f"trace digests differ ({label_a}={trace_a.get('digest')}, "
            f"{label_b}={trace_b.get('digest')}) with no section diff")
    return violations


class WatermarkMonitor:
    """Samples per-instance watermarks; flags regressions.

    A watermark may only move backwards across a recovery restore (the
    restore rewinds it to ``-inf`` before replay).  The monitor tags each
    sample with the recovery epoch (``len(recovery.recoveries)``) and
    only compares samples within one epoch.

    Sampling spawns a kernel process, so attach this only to chaos runs.
    """

    def __init__(self, job, recovery=None, interval: float = 0.25):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.job = job
        self.recovery = recovery
        self.interval = interval
        self.violations: List[str] = []
        self._last: Dict[str, tuple] = {}
        self._running = False

    def _epoch(self) -> int:
        return len(self.recovery.recoveries) if self.recovery else 0

    def start(self) -> "WatermarkMonitor":
        if self._running:
            return self
        self._running = True
        self.job.sim.spawn(self._loop(), name="watermark-monitor")
        return self

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        sim = self.job.sim
        while self._running:
            yield sim.timeout(self.interval)
            epoch = self._epoch()
            for instance in self.job.all_instances():
                if instance.paused:
                    # A paused instance's watermark is not externally
                    # visible; recovery rewinds it to -inf while paused,
                    # which would read as a same-epoch regression.
                    continue
                wm = instance.current_watermark
                last = self._last.get(instance.name)
                if (last is not None and last[1] == epoch
                        and wm < last[0]):
                    self.violations.append(
                        f"{instance.name}: watermark regressed "
                        f"{last[0]} -> {wm} at t={sim.now} with no "
                        "recovery in between")
                self._last[instance.name] = (wm, epoch)
