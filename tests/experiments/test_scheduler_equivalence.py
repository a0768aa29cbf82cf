"""Scheduler matrix: one semantic truth under either event scheduler.

The calendar-queue scheduler is a pure wall-clock optimization, so the
batched plane under ``scheduler ∈ {heap, calendar}`` (plus the per-record
reference) must reproduce the same golden semantic subtree and the same
chaos invariant reports bit-for-bit.
"""

import functools

import pytest

from repro.engine.runtime import JobConfig
from repro.experiments.chaos_bank import CHAOS_SCENARIOS, _crash_mid_subscale
from repro.experiments.golden import capture_q7_trace
from repro.faults.chaos import ChaosHarness, ChaosScenario

COMBOS = [("heap", "batched"), ("calendar", "batched")]


def test_q7_rescale_identical_across_scheduler_plane_matrix():
    reference = capture_q7_trace(record_plane="single", scheduler="heap")
    for scheduler, plane in COMBOS:
        trace = capture_q7_trace(record_plane=plane, scheduler=scheduler)
        assert trace["info"]["scheduler"] == scheduler
        assert trace["info"]["record_plane"] == plane
        assert trace["semantic"] == reference["semantic"], \
            f"semantic drift under scheduler={scheduler}, plane={plane}"


def test_q7_noscale_identical_across_scheduler_plane_matrix():
    reference = capture_q7_trace(system=None, record_plane="single",
                                 scheduler="heap")
    for scheduler, plane in COMBOS:
        trace = capture_q7_trace(system=None, record_plane=plane,
                                 scheduler=scheduler)
        assert trace["semantic"] == reference["semantic"], \
            f"semantic drift under scheduler={scheduler}, plane={plane}"


@pytest.mark.parametrize("plane", ["batched"])
def test_chaos_crash_mid_subscale_identical_under_calendar(plane):
    """The §IV-C acceptance scenario: calendar × plane vs the heap run.

    The rescale and the restore each collapse the plane for their window,
    so this exercises the explode path under the calendar scheduler too.
    """
    reference = ChaosHarness(CHAOS_SCENARIOS["crash-mid-subscale"],
                             seed=7).run()
    scenario = ChaosScenario(
        f"crash-mid-subscale-calendar-{plane}",
        functools.partial(_crash_mid_subscale,
                          job_config=JobConfig(scheduler="calendar")),
        "crash-mid-subscale under the calendar-queue scheduler")
    run = ChaosHarness(scenario, seed=7, record_plane=plane).run()
    assert reference.passed and run.passed
    ref_doc, doc = reference.to_dict(), run.to_dict()
    ref_doc.pop("scenario"), doc.pop("scenario")
    assert doc.pop("record_plane") == plane
    assert ref_doc.pop("record_plane") == "batched"
    assert doc == ref_doc
