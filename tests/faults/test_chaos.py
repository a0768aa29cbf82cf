"""Chaos bank regression: every scenario must pass at the pinned seed —
under *both* keyed-state backends, with identical semantic traces.

``crash-mid-subscale`` is the §IV-C acceptance scenario — its internal
expectations pin that recovery restored a checkpoint taken *during* the
scaling operation and that the controller's abort + retry completed
the rescale.  The others cover phase-triggered crashes, lossy windows,
stalled checkpoint uploads, re-ordering, double faults, and the
recovery-time comparison on large state.
"""

import pytest

from repro.engine.checkpoint import CheckpointCoordinator
from repro.engine.operators import Alignment, OperatorInstance
from repro.experiments.chaos_bank import CHAOS_SCENARIOS
from repro.faults import ChaosHarness, check_backend_equivalence

SEED = 7


@pytest.mark.parametrize("backend", ["dict", "changelog"])
@pytest.mark.parametrize("name", sorted(CHAOS_SCENARIOS))
def test_scenario_passes_at_pinned_seed(name, backend):
    report = ChaosHarness(CHAOS_SCENARIOS[name], seed=SEED,
                          state_backend=backend).run()
    assert report.passed, report.summary()
    assert report.state_backend == backend


@pytest.mark.parametrize("name", sorted(CHAOS_SCENARIOS))
def test_backend_equivalence_at_pinned_seed(name):
    """Dict and changelog runs of one scenario converge to the same
    semantic trace — state, final sink values, watermarks, digest."""
    traces = {
        backend: ChaosHarness(CHAOS_SCENARIOS[name], seed=SEED,
                              state_backend=backend).run().semantic_trace
        for backend in ("dict", "changelog")
    }
    assert check_backend_equivalence(traces["dict"],
                                     traces["changelog"]) == []


def test_report_shape():
    report = ChaosHarness(CHAOS_SCENARIOS["delay-blip"], seed=SEED).run()
    doc = report.to_dict()
    assert doc["scenario"] == "delay-blip"
    assert doc["seed"] == SEED
    assert doc["passed"] is True
    assert doc["violations"] == []
    assert doc["state_backend"] == "dict"
    assert doc["record_plane"] == "batched"
    # The delay window collapses its hop when it opens, and again for each
    # late re-delivery that finds batch state on it.
    assert doc["plane_collapses"] >= 1
    assert "plane=batched collapsed" in report.summary()
    assert doc["semantic_trace"]["digest"]
    assert "delay-blip" in report.summary()


def test_recovery_time_measurements_recorded():
    report = ChaosHarness(CHAOS_SCENARIOS["crash-large-state"],
                          seed=SEED).run()
    assert report.passed, report.summary()
    m = report.measurements
    assert m["state_backend"] == "changelog"
    # The two headline claims, as recorded numbers: ~constant barrier
    # cost and recovery in at most half the dict backend's time.
    assert m["max_checkpoint_sync_seconds"] <= \
        0.1 * m["dict_max_checkpoint_sync_seconds"]
    assert m["recovery_restore_seconds"] <= \
        0.5 * m["dict_recovery_restore_seconds"]


def test_acceptance_scenario_across_seeds():
    # The mid-subscale crash must not be a lucky seed: a small sweep.
    for seed in (0, 3, 11):
        report = ChaosHarness(CHAOS_SCENARIOS["crash-mid-subscale"],
                              seed=seed).run()
        assert report.passed, report.summary()


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("backend", ["dict", "changelog"])
def test_scripted_twin_catches_young_channel_skip(monkeypatch, backend,
                                                  seed):
    """Why ``scripted-crash-mid-subscale`` is in the bank.

    A rescale that adds instances while a checkpoint barrier is in flight
    creates channels that will never carry that barrier (ROADMAP item 1,
    "No channel is born inside an open alignment").  One tempting fix
    stamps each input channel with the last checkpoint id triggered
    before it was created and aligns a checkpoint only over older
    channels.  Restoring such a checkpoint leaves key-groups
    mid-migration, counts short of the oracle and the rescales
    unfinished, and this scenario reports it under both backends.

    Item 1's provisioning wait (no instance is added while a barrier is
    in flight) makes the skip harmless; item 1's change replaces this
    test with its Hypothesis property over controller, checkpoint
    interval and rescale offset.
    """
    last_triggered = [0]
    born = {}  # InputChannel -> last checkpoint id triggered before it
    trigger_now = CheckpointCoordinator.trigger_now
    add_input_channel = OperatorInstance.add_input_channel
    complete = Alignment.complete

    def stamped_trigger(self):
        last_triggered[0] = trigger_now(self)
        return last_triggered[0]

    def stamped_channel(self, name=""):
        channel = add_input_channel(self, name)
        born[channel] = last_triggered[0]
        return channel

    def complete_over_older(self):
        token = self.token
        if not (isinstance(token, tuple) and token[0] == "ckpt"):
            return complete(self)
        return all(ch in self.seen for ch in self.instance.input_channels
                   if not ch.is_auxiliary and born.get(ch, 0) < token[1])

    monkeypatch.setattr(CheckpointCoordinator, "trigger_now",
                        stamped_trigger)
    monkeypatch.setattr(OperatorInstance, "add_input_channel",
                        stamped_channel)
    monkeypatch.setattr(Alignment, "complete", complete_over_older)
    report = ChaosHarness(CHAOS_SCENARIOS["scripted-crash-mid-subscale"],
                          seed=seed, state_backend=backend).run()
    assert report.violations, report.summary()
