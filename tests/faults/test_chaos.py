"""Chaos bank regression: every scenario must pass at the pinned seed —
under *both* keyed-state backends, with identical semantic traces.

``crash-mid-subscale`` is the §IV-C acceptance scenario — its internal
expectations pin that recovery restored a checkpoint taken *during* the
scaling operation and that the controller's rollback + retry completed
the rescale.  The others cover phase-triggered crashes, lossy windows,
stalled transfers, stalled checkpoint uploads, re-ordering, double
faults, and the recovery-time comparison on large state.
"""

import pytest

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
