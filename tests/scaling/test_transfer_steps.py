"""The one whole-key-group move and what every controller inherits from it.

``ScalingController._transfer_group`` is three steps — ``_extract``,
``_ship``, ``_land`` — and every controller moves state through them:
whole-group controllers through all three, Meces through ``_ship`` for
its sub-key-group moves.  These tests pin the steps one by one and the
behaviour each controller inherits: the ``StallTransfers`` fault hook,
the ``state-transfer`` span (and so ``phase="state-transfer"`` triggers),
the once-per-source batch of OTFS all-at-once, Stop-Restart's uncharged
extraction and Unbound's merging install.
"""

from types import SimpleNamespace

import pytest

from repro.engine.state import StateStatus
from repro.experiments.chaos_bank import _keyed_job
from repro.experiments.figures import controller_factory
from repro.faults.injector import FaultInjector, StallTransfers
from repro.scaling import OTFSController, StopRestartController
from repro.scaling.base import ScalingController

WHOLE_GROUP_CONTROLLERS = ["drrs", "otfs", "otfs-all-at-once", "megaphone",
                           "subscale", "schedule", "stop-restart", "unbound"]
ALL_CONTROLLERS = WHOLE_GROUP_CONTROLLERS + ["meces"]


def _rescale(system, stall=None, telemetry=False, until=25.0):
    """Rescale ``agg`` 2→4 at t=2 on a keyed job; returns the job, the
    controller and the fault injector (None without ``stall``)."""
    job, _produced = _keyed_job(stop_at=10.0)
    if telemetry:
        job.enable_telemetry()
    controller = controller_factory(system)(job)
    injector = None
    if stall is not None:
        injector = FaultInjector(job, seed=0).add(stall).arm()
    holder = {}
    job.sim.call_at(
        2.0, lambda: holder.setdefault(
            "done", controller.request_rescale("agg", 4)))
    job.run(until=until)
    assert holder["done"].triggered
    return job, controller, injector


def _stalled_transfers(injector):
    closed = [detail for _t, kind, detail in injector.injected
              if kind == "WindowClosed"]
    assert len(closed) == 1
    return int(closed[0].split(": ")[1].split()[0])


@pytest.mark.parametrize("system", ALL_CONTROLLERS)
def test_stall_transfers_stretch_every_controller(system):
    _job, plain, _ = _rescale(system)
    stall = StallTransfers("agg", extra_seconds=0.5, duration=20.0, at=1.0)
    _job, stalled, injector = _rescale(system, stall=stall)
    assert _stalled_transfers(injector) > 0
    assert stalled.metrics.duration >= plain.metrics.duration + 0.5


@pytest.mark.parametrize("system", WHOLE_GROUP_CONTROLLERS)
def test_state_transfer_span_per_group_for_every_controller(system):
    stall = StallTransfers("agg", extra_seconds=0.0, duration=1.0,
                           phase="state-transfer")
    job, controller, injector = _rescale(system, stall=stall,
                                         telemetry=True)
    fired = [t for t, kind, _d in injector.injected
             if kind == "StallTransfers"]
    assert len(fired) == 1 and fired[0] >= 2.0
    migrated = sorted(controller.metrics.migration_completed)
    assert migrated
    spans = job.telemetry.tracer.closed_spans(category="transfer",
                                              name="state-transfer")
    assert sorted(s.attrs["key_group"] for s in spans) == migrated


# -- the three steps, driven one by one ----------------------------------------


def _step_fixture():
    """A keyed job whose source went quiet at t=0.5, run to t=1, a base
    controller on it, and a (src, dst, key_group) triple where ``src``
    holds ``key_group``.  No record arrives while a step runs, so the
    state each step leaves behind is exactly what the step did."""
    job, _produced = _keyed_job(stop_at=0.5)
    job.run(until=1.0)
    src, dst = job.instances("agg")
    key_group = next(g.key_group for g in src.state.groups()
                     if g.entries)
    return job, ScalingController(job), src, dst, key_group


def _drive(job, generator):
    """Run ``generator`` as a process to completion; returns its value."""
    out = {}

    def body():
        out["value"] = yield from generator
        out["at"] = job.sim.now

    start = job.sim.now
    job.sim.spawn(body())
    job.run(until=job.sim.now + 5.0)
    return out["value"], out["at"] - start


def test_extract_cuts_group_into_inflight_registry():
    job, controller, src, dst, kg = _step_fixture()
    group = src.state.group(kg)
    entries, size = dict(group.entries), group.size_bytes
    (flight, wire_bytes, span), _elapsed = _drive(
        job, controller._extract(src, dst, kg))
    assert span is None  # telemetry is off
    assert wire_bytes == size
    assert job.inflight_state[("agg", kg)] is flight
    assert (flight.src_index, flight.dst_index) == (src.index, dst.index)
    assert flight.size_bytes == size
    assert flight.entries == entries
    stub = src.state.group(kg)
    assert stub.status is StateStatus.MIGRATED_OUT
    assert stub.entries == {} and stub.size_bytes == 0.0
    assert kg in controller.metrics.migration_started


def test_extract_refuses_a_group_the_source_does_not_hold():
    job, controller, src, dst, _kg = _step_fixture()
    foreign = next(g.key_group for g in dst.state.groups())
    with pytest.raises(KeyError, match="does not hold key-group"):
        _drive(job, controller._extract(src, dst, foreign))


def test_land_installs_flight_and_empties_registry():
    job, controller, src, dst, kg = _step_fixture()
    (flight, _wire, span), _ = _drive(job, controller._extract(src, dst, kg))
    landed = []
    job.recovery = SimpleNamespace(
        on_flight_landed=lambda f, d: landed.append((f, d)))
    controller._land(flight, dst, StateStatus.LOCAL, span)
    assert ("agg", kg) not in job.inflight_state
    assert landed == [(flight, dst)]
    group = dst.state.group(kg)
    assert group.status is StateStatus.LOCAL
    assert group.entries is flight.entries
    assert group.size_bytes == flight.size_bytes
    assert kg in controller.metrics.migration_completed


def test_land_after_rollback_installs_nothing():
    job, controller, src, dst, kg = _step_fixture()
    (flight, _wire, span), _ = _drive(job, controller._extract(src, dst, kg))
    # The abort path consumes the flight before the mover lands it.
    job.inflight_state.pop(("agg", kg))
    controller._land(flight, dst, StateStatus.LOCAL, span)
    assert dst.state.group(kg) is None
    assert kg not in controller.metrics.migration_completed


def test_uncharged_extract_skips_the_serialization_charge():
    job, controller, src, dst, kg = _step_fixture()
    charge = job.config.transfer.extract_seconds_per_group
    assert charge > 0
    _, charged = _drive(job, controller._extract(src, dst, kg))
    other = next(g.key_group for g in src.state.groups()
                 if g.status is StateStatus.LOCAL)
    _, uncharged = _drive(job, controller._extract(src, dst, other,
                                                   charge_extract=False))
    assert charged >= charge
    assert uncharged < charge


def test_stop_restart_moves_groups_without_extract_charge(monkeypatch):
    calls = []
    original = ScalingController._extract

    def spy(self, src, dst, key_group, charge_extract=True):
        calls.append(charge_extract)
        return original(self, src, dst, key_group, charge_extract)

    monkeypatch.setattr(ScalingController, "_extract", spy)
    _job, controller, _ = _rescale("stop-restart")
    assert isinstance(controller, StopRestartController)
    assert calls and not any(calls)
    assert len(calls) == len(controller.metrics.migration_completed)


def test_all_at_once_ships_once_per_source(monkeypatch):
    extracted, shipped = {}, []
    extract, ship = ScalingController._extract, ScalingController._ship

    def spy_extract(self, src, dst, key_group, charge_extract=True):
        result = yield from extract(self, src, dst, key_group,
                                    charge_extract)
        extracted.setdefault(src.index, []).append(result[1])
        return result

    def spy_ship(self, src, dst, wire_bytes, key_group):
        shipped.append((src.index, wire_bytes))
        return ship(self, src, dst, wire_bytes, key_group)

    monkeypatch.setattr(ScalingController, "_extract", spy_extract)
    monkeypatch.setattr(ScalingController, "_ship", spy_ship)
    _job, controller, _ = _rescale("otfs-all-at-once")
    assert isinstance(controller, OTFSController)
    assert sum(len(v) for v in extracted.values()) == len(
        controller.metrics.migration_completed)
    # One batch per source instance, carrying every group it gave up.
    assert sorted(shipped) == sorted(
        (index, sum(wires)) for index, wires in extracted.items())


def test_unbound_install_merges_with_destination_updates():
    job, _produced = _keyed_job(stop_at=0.5)
    controller = controller_factory("unbound")(job)
    job.run(until=1.0)
    src, dst = job.instances("agg")
    kg = next(g.key_group for g in src.state.groups() if g.entries)
    (flight, _wire, span), _ = _drive(job, controller._extract(src, dst, kg))
    # The destination processed records of the group while it was away.
    live = dst.state.register_group(kg, StateStatus.LOCAL)
    key = next(iter(flight.entries))
    live.entries = {key: -1, "fresh": 7}
    live.size_bytes = 10.0
    controller._land(flight, dst, StateStatus.LOCAL, span)
    group = dst.state.group(kg)
    assert group.entries[key] == -1  # destination-side updates win
    assert group.entries["fresh"] == 7
    assert set(flight.entries) <= set(group.entries)
    assert group.size_bytes == 10.0 + flight.size_bytes
    assert group.status is StateStatus.LOCAL
