"""Sender-side routing-cache invalidation across rescale and restore.

The batched record plane makes the key-group -> channel cache on every
``OutputEdge`` hotter (bursts resolve a channel once per run, not per
record), so a stale entry surviving a routing swap would steer whole
batches at the wrong owner.  These tests pin the two bulk ownership swaps
the caches must follow: the DRRS subscale routing swap and the checkpoint
restore after a crash mid-rescale.
"""

import sys

sys.path.insert(0, "tests")
from helpers import (assert_assignment_consistent, build_keyed_job,
                     drive, run_until)  # noqa: E402

from repro.core.drrs import DRRSConfig, DRRSController
from repro.engine import CheckpointCoordinator
from repro.engine.recovery import RecoveryManager
from repro.scaling.base import RescaleAborted, rescale_until_done


def _assert_caches_match_assignment(job, op_name):
    """Every cached key-group -> channel entry agrees with the sender's
    routing table, which agrees with the authoritative assignment."""
    assignment = job.assignments[op_name].as_dict()
    for _sender, edge in job.senders_to(op_name):
        for kg, channel in edge._channel_cache.items():
            assert edge.channels[edge.routing_table[kg]] is channel, (
                f"stale cache entry for kg {kg}")
            assert edge.routing_table[kg] == assignment[kg], (
                f"sender table for kg {kg} disagrees with assignment")


def test_post_swap_records_land_on_new_owner():
    """Rescale mid-stream under the batched plane: records emitted after
    the routing swap must be processed by the new owners."""
    job = build_keyed_job()
    drive(job, until=30.0)
    job.run(until=5.0)
    controller = DRRSController(job, DRRSConfig())
    done = controller.request_rescale("agg", 4)
    job.run(until=15.0)
    assert done.triggered
    assert_assignment_consistent(job, "agg")

    instances = job.instances("agg")
    before = [inst.records_processed for inst in instances]
    job.run(until=25.0)
    fresh = [inst.records_processed - b
             for inst, b in zip(instances, before)]
    assignment = job.assignments["agg"].as_dict()
    moved = [kg for kg, owner in assignment.items() if owner >= 2]
    assert moved, "the rescale moved no key-groups to the new instances"
    assert any(fresh[i] > 0 for i in range(2, 4)), (
        f"new owners processed nothing post-swap: {fresh}")
    _assert_caches_match_assignment(job, "agg")


def test_crash_mid_rescale_leaves_caches_agreeing_with_the_restore():
    """A crash mid-scale restores the checkpoint's assignment: every sender
    cache, warm before the crash, agrees with it once the restore is done,
    and again after the re-requested rescale completes."""
    job = build_keyed_job()
    drive(job, until=30.0)
    CheckpointCoordinator(job, interval=1.0).start()
    recovery = RecoveryManager(job, restart_seconds=0.5).install()
    job.run(until=5.0)
    controller = DRRSController(job, DRRSConfig())
    done = controller.request_rescale("agg", 4)
    job.run(until=5.05)
    assert controller.active, "scale finished before the crash window"
    # Warm the caches so the restore has something real to replace.
    for _sender, edge in job.senders_to("agg"):
        for kg in edge.routing_table:
            edge._channel_cache[kg] = edge.channels[edge.routing_table[kg]]

    restored = recovery.fail_and_recover("crash")
    run_until(job, lambda: restored.triggered)
    assert restored.triggered
    assert isinstance(done.value, RescaleAborted)
    _assert_caches_match_assignment(job, "agg")

    again = job.sim.spawn(rescale_until_done(job, controller, "agg", 4))
    job.run(until=15.0)
    assert again.triggered and again.ok
    assert_assignment_consistent(job, "agg")
    _assert_caches_match_assignment(job, "agg")
