#!/usr/bin/env python3
"""Fault tolerance end to end: checkpoints, a rescale, a crash, recovery.

Runs a keyed pipeline with periodic aligned checkpoints, kicks off a DRRS
rescale, and uses the fault-injection subsystem to crash an instance while
subscales are still in flight.  Checkpoints completed *during* the scaling
operation are restorable — migrating key-group state is folded into a
consistent cut — so the job rolls back to the newest checkpoint (possibly
a mid-scaling one), the controller aborts and rolls back the half-done
scale, replays its sources, and the retry finishes the rescale.  The final
state is exactly what a failure-free run would have produced.

Then the chaos harness runs a full scenario from the bank and prints its
invariant report — the same machinery `python -m repro chaos` drives.

Run:  python examples/failure_recovery.py
"""

from repro import DRRSController, JobGraph, StreamJob
from repro.engine import (CheckpointCoordinator, KeyedReduceLogic,
                          OperatorSpec, Partitioning, RecoveryManager,
                          Record)
from repro.experiments.chaos_bank import chaos_scenario
from repro.faults import ChaosHarness, CrashInstance, FaultInjector
from repro.faults.invariants import check_all


def build_job() -> StreamJob:
    graph = JobGraph("ft-demo", num_key_groups=16)
    graph.add_source("source", parallelism=1)
    graph.add_operator(OperatorSpec(
        "counter",
        logic_factory=lambda: KeyedReduceLogic(
            lambda old, r: (old or 0) + r.count),
        parallelism=2, service_time=2e-4, keyed=True,
        initial_state_bytes_per_group=16e6))
    graph.add_sink("sink")
    graph.connect("source", "counter", Partitioning.HASH)
    graph.connect("counter", "sink", Partitioning.FORWARD)
    return StreamJob(graph).build()


def main():
    job = build_job()
    produced = {}

    def generator():
        source = job.sources()[0]
        tick = 0
        while job.sim.now < 20.0:
            key = f"k{tick % 20}"
            source.offer(Record(key=key, event_time=job.sim.now, count=1))
            # Tally at the source: an oracle that survives replay-history
            # trimming and is blind to every fault downstream.
            produced[key] = produced.get(key, 0) + 1
            tick += 1
            yield job.sim.timeout(0.01)

    job.sim.spawn(generator())
    job.enable_telemetry()
    checkpoints = CheckpointCoordinator(job, interval=1.0)
    checkpoints.start()
    recovery = RecoveryManager(job, restart_seconds=1.0).install()
    controller = DRRSController(job)
    holder = {}
    job.sim.call_at(
        6.0, lambda: holder.update(
            done=controller.request_rescale("counter", 4)))

    # Crash counter[1] at t=8 — with 16 MB per key group the subscales
    # are still migrating state, so the crash lands mid-scaling.
    injector = FaultInjector(job, recovery=recovery)
    injector.add(CrashInstance("counter", 1, at=8.0)).arm()

    job.run(until=60.0)

    for when, kind, detail in injector.injected:
        print(f"t={when:6.2f}  injected {kind}: {detail}")
    assert recovery.recoveries, "the crash should have forced a recovery"
    when, cid = recovery.recoveries[0]
    print(f"t={when:6.2f}  recovered from checkpoint #{cid} "
          f"(mid_scaling={cid in recovery.restored_mid_scaling})")
    done = holder["done"]
    assert done.triggered and done._ok, "retry should finish the rescale"
    print(f"rescale finished: counter now has "
          f"{len(job.instances('counter'))} instances")

    violations = check_all(job, "counter", oracle=produced)
    assert not violations, violations
    print(f"invariants hold: exactly-once state across "
          f"{len(produced)} keys, unique ownership, consistent routing.")

    # The chaos bank packages scenarios like the above with invariant
    # checks and expectations; the harness runs one end to end.
    print("\nrunning bank scenario 'crash-during-transfer'...")
    report = ChaosHarness(chaos_scenario("crash-during-transfer")).run()
    print(report.summary())
    assert report.passed


if __name__ == "__main__":
    main()
