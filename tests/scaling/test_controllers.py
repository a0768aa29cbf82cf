"""End-to-end behaviour of every baseline controller.

Shared checks: scaling completes, the authoritative assignment is
consistent, no records are lost, and each mechanism shows its signature
overhead profile.
"""

import sys

import pytest

sys.path.insert(0, "tests")
from helpers import (assert_assignment_consistent, build_keyed_job,
                      drive, runs_without_rescale)  # noqa: E402

from repro.engine.runtime import JobConfig
from repro.experiments import controller_factory
from repro.experiments.figures import SYSTEMS
from repro.faults.invariants import check_all
from repro.scaling import (MecesController, MegaphoneController,
                           MigrationPlan, OTFSController,
                           StopRestartController, UnboundController)
from repro.scaling.base import ScalingController


def run_scaled(controller_cls, until=35.0, scale_at=5.0, new_parallelism=4,
               **kwargs):
    job = build_keyed_job()
    drive(job, until=until - 5.0)
    job.run(until=scale_at)
    controller = controller_cls(job, **kwargs)
    done = controller.request_rescale("agg", new_parallelism)
    job.run(until=until)
    return job, controller, done


CONTROLLERS = [
    (OTFSController, {"migration": "fluid", "injection": "source"}),
    (OTFSController, {"migration": "fluid", "injection": "predecessor"}),
    (OTFSController, {"migration": "all_at_once", "injection": "source"}),
    (MegaphoneController, {"batch_size": 2}),
    (MecesController, {"sub_groups": 2}),
    (UnboundController, {}),
    (StopRestartController, {}),
]

@pytest.mark.parametrize("backend", ["dict", "changelog"])
@pytest.mark.parametrize("targets", [(4,), (5, 6, 2), (4, 2, 4, 2), (8,)],
                         ids=lambda t: "-".join(map(str, t)))
@pytest.mark.parametrize("name", list(SYSTEMS))
def test_controller_completes_and_is_consistent(name, targets, backend):
    """One controller instance runs successive rescales, each requested
    after the previous one's ``done``: scale-outs, scale-ins and one large
    scale-out (2 -> 8, two key-groups per instance).  Each ``done`` finds
    the rescale taken off every instance again."""
    job = build_keyed_job(job_config=JobConfig(state_backend=backend))
    drive(job, until=30.0)
    controller = controller_factory(name)(job)
    dones = []
    torn_down = []

    def rescales():
        yield job.sim.timeout(5.0)
        for target in targets:
            dones.append(controller.request_rescale("agg", target))
            yield dones[-1]
            torn_down.append(runs_without_rescale(job, "agg"))

    job.sim.spawn(rescales(), name="rescales")
    job.run(until=40.0)
    assert [done.triggered and done.ok for done in dones] \
        == [True] * len(targets), f"{name} did not finish {targets}"
    assert torn_down == [True] * len(targets)
    assert_assignment_consistent(job, "agg")
    assert job.assignments["agg"].parallelism == targets[-1]
    assert check_all(job, "agg") == []
    assert job.sink_logic().records_in == job.metrics.total_source_output()


@pytest.mark.parametrize("cls,kwargs", CONTROLLERS,
                         ids=lambda v: getattr(v, "name", str(v)))
def test_controller_conserves_records(cls, kwargs):
    job, controller, done = run_scaled(cls, **kwargs)
    assert done.triggered
    assert_assignment_consistent(job, "agg")
    job.run(until=40.0)  # drain
    assert job.sink_logic().records_in == job.metrics.total_source_output()


@pytest.mark.parametrize("cls,kwargs", CONTROLLERS,
                         ids=lambda v: getattr(v, "name", str(v)))
def test_controller_migrates_every_group(cls, kwargs):
    job, controller, done = run_scaled(cls, **kwargs)
    assert done.triggered
    m = controller.metrics
    migrating = set(m.group_signal)
    assert migrating, "plan should migrate something"
    assert set(m.migration_completed) >= migrating


@pytest.mark.parametrize("target,wait", [(4, 0.5), (1, 0.0)],
                         ids=["scale-out", "scale-in"])
def test_provisioning_waits_instance_init_seconds(target, wait):
    # New instances start after the fixed provisioning time; a scale-in
    # provisions nothing and waits for nothing.
    assert ScalingController.instance_init_seconds == 0.5
    job = build_keyed_job()
    controller = OTFSController(job)
    plan = MigrationPlan.uniform("agg", job.assignments["agg"], target)
    provisioned = {}

    def provision():
        yield from controller._provision("agg", plan)
        provisioned.update(at=job.sim.now, new=job.instances("agg")[2:])

    job.sim.spawn(provision())
    job.run(until=1.0)
    assert provisioned["at"] == wait
    assert len(provisioned["new"]) == max(target - 2, 0)
    assert all(instance.running for instance in provisioned["new"])


def test_rescale_rejects_non_keyed_operator():
    job = build_keyed_job()
    controller = OTFSController(job)
    with pytest.raises(ValueError):
        controller.request_rescale("src", 4)


def test_rescale_rejects_invalid_parallelism():
    job = build_keyed_job()
    controller = OTFSController(job)
    with pytest.raises(ValueError):
        controller.request_rescale("agg", 0)
    with pytest.raises(ValueError):
        controller.request_rescale("agg", job.graph.num_key_groups + 1)


def test_rescale_same_parallelism_allowed_for_resume():
    """Equal parallelism is legal: a superseding request may need to finish
    the remaining moves of a cancelled operation (§IV-B)."""
    job = build_keyed_job()
    drive(job, until=10.0)
    job.run(until=2.0)
    controller = OTFSController(job)
    done = controller.request_rescale("agg", 2)  # no moves, no provisioning
    job.run(until=10.0)
    assert done.triggered


def test_megaphone_has_highest_propagation_delay():
    _j1, mega, d1 = run_scaled(MegaphoneController, batch_size=2)
    _j2, otfs, d2 = run_scaled(OTFSController)
    assert d1.triggered and d2.triggered
    assert (mega.metrics.cumulative_propagation_delay()
            > otfs.metrics.cumulative_propagation_delay())


def test_meces_has_lowest_propagation_delay():
    _j1, meces, d1 = run_scaled(MecesController)
    _j2, otfs, d2 = run_scaled(OTFSController)
    assert d1.triggered and d2.triggered
    assert (meces.metrics.cumulative_propagation_delay()
            <= otfs.metrics.cumulative_propagation_delay())


def test_unbound_has_zero_suspension():
    _job, unbound, done = run_scaled(UnboundController)
    assert done.triggered
    assert unbound.metrics.total_suspension() == 0.0


def test_stop_restart_halts_everything():
    job, controller, done = run_scaled(StopRestartController)
    assert done.triggered
    # the halt shows up as suspension on the scaling instances
    assert controller.metrics.total_suspension() > 0


def test_paused_source_mid_service_is_not_quiesced():
    """Pausing a source does not stop the record it is serving: that
    record still leaves, under the routing of the moment.  The halt's
    drain check must wait until the source's loop is parked."""
    job = build_keyed_job()
    drive(job, until=10.0)
    job.run(until=3.0001)  # both sources are serving the 3.0 records
    sources = job.sources()
    for source in sources:
        source.pause()
    assert not StopRestartController._quiesced(sources)
    job.run(until=3.1)
    assert all(source.wake.parked for source in sources)
    assert StopRestartController._quiesced(sources)


@pytest.mark.parametrize("backend", ["dict", "changelog"])
@pytest.mark.parametrize("target", [6, 7, 8])
def test_stop_restart_leaves_no_moved_group_on_its_old_owner(target,
                                                             backend):
    """A rescale requested while the sources serve a record: without the
    parked-source drain rule, that record reached ``agg[0]`` after the
    halt and re-registered key-group 2 there after the restore."""
    job = build_keyed_job(job_config=JobConfig(state_backend=backend))
    drive(job, until=40.0)
    job.run(until=3.0)
    done = StopRestartController(job).request_rescale("agg", target)
    job.run(until=45.0)
    assert done.triggered and done.ok
    assert check_all(job, "agg") == []
    assert job.sink_logic().records_in == job.metrics.total_source_output()


def test_all_at_once_single_transfer_per_source():
    job, controller, done = run_scaled(
        OTFSController, migration="all_at_once")
    assert done.triggered
    m = controller.metrics
    # every group of one source completes at the same instant (batch)
    by_completion = {}
    for kg, t in m.migration_completed.items():
        by_completion.setdefault(round(t, 9), []).append(kg)
    assert len(by_completion) <= 2  # one batch per old instance


def test_meces_back_and_forth_under_backlog():
    """Fetch-on-demand thrash (§V-B): with a deep input backlog at routing
    flip time, hot sub-key-groups bounce between instances."""
    from repro.engine import Record

    job = build_keyed_job(num_key_groups=8, agg_parallelism=2,
                          agg_service=0.01)

    def gen():
        sources = job.sources()
        i = 0
        while job.sim.now < 20.0:
            for s in sources:
                s.offer(Record(key=f"k{i % 32}", event_time=job.sim.now,
                               count=1))
            i += 1
            yield job.sim.timeout(0.004)

    job.sim.spawn(gen())
    job.run(until=3.0)
    controller = MecesController(job, sub_groups=4)
    done = controller.request_rescale("agg", 4)
    job.run(until=60.0)
    assert done.triggered
    assert controller.metrics.remigrations > 0
    assert max(controller._move_counts.values()) > 1
