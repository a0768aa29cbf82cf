"""Every whole-key-group controller survives a checkpoint cut mid-move.

A keyed job rescales 2→4 at t=6, a checkpoint is triggered at t=6.6 while
key-groups are on the wire, and a failure at t=20 restores from it.  The
in-flight bytes must be folded into that checkpoint (§IV-C) whatever the
controller, so recovery ends exactly-once; and every migrated key-group
must leave one ``state-transfer`` span.  Meces and Unbound refuse to
rescale under a RecoveryManager: no whole-group restore repairs their
moves.
"""

import pytest

from repro.engine import CheckpointCoordinator
from repro.engine.recovery import RecoveryManager
from repro.experiments.chaos_bank import _keyed_job
from repro.experiments.figures import controller_factory
from repro.faults.invariants import check_all
from repro.scaling import MecesController, UnboundController

WHOLE_GROUP_CONTROLLERS = ["drrs", "otfs", "otfs-all-at-once", "megaphone",
                           "subscale", "schedule", "stop-restart"]


def _recoverable_job():
    job, produced = _keyed_job(stop_at=16.0)
    job.enable_telemetry()
    coordinator = CheckpointCoordinator(job, interval=100.0)
    coordinator.start()
    manager = RecoveryManager(job, restart_seconds=0.3).install()
    return job, produced, coordinator, manager


@pytest.mark.parametrize("system", WHOLE_GROUP_CONTROLLERS)
def test_checkpoint_mid_move_restores_exactly_once(system):
    job, produced, coordinator, manager = _recoverable_job()
    controller = controller_factory(system)(job)
    holder = {}

    def kick():
        holder["done"] = controller.request_rescale("agg", 4)

    job.sim.call_at(6.0, kick)
    job.sim.call_at(
        6.6, lambda: holder.setdefault("cid", coordinator.trigger_now()))
    job.sim.call_at(20.0, lambda: manager.fail_and_recover("probe"))
    job.run(until=45.0)

    assert holder["done"].triggered
    assert [cid for _t, cid in manager.recoveries] == [holder["cid"]]
    assert check_all(job, "agg", oracle=produced) == []
    migrated = sorted(controller.metrics.migration_completed)
    assert migrated
    spans = job.telemetry.tracer.closed_spans(category="transfer",
                                              name="state-transfer")
    assert sorted(s.attrs["key_group"] for s in spans) == migrated


@pytest.mark.parametrize("controller_class",
                         [MecesController, UnboundController])
def test_meces_refuses_to_rescale_under_recovery(controller_class):
    """The two controllers whose moves no whole-group restore repairs
    refuse at request time, through the same check."""
    job, _produced, _coordinator, _manager = _recoverable_job()
    controller = controller_class(job)
    with pytest.raises(RuntimeError, match="checkpoint recovery"):
        controller.request_rescale("agg", 4)
    assert not controller.active
