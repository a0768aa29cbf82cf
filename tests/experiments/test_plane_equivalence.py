"""Batched vs. per-record plane: bit-identical simulated behaviour.

The batched record plane is a pure wall-clock optimization — micro-batches
change *when host CPU is spent*, never what the simulation computes.  These
tests run the same scenarios under ``record_plane="batched"`` and
``"single"`` and require the full semantic subtree (sink records, latency
digests, scaling metrics, per-instance counters) and the chaos invariant
reports (checkpoint recoveries included) to match exactly.
"""

import pytest

from repro.engine.runtime import JobConfig
from repro.experiments.chaos_bank import CHAOS_SCENARIOS
from repro.experiments.golden import capture_q7_trace
from repro.faults.chaos import ChaosHarness


def _trace(plane, **kw):
    return capture_q7_trace(job_config=JobConfig(record_plane=plane), **kw)


def test_q7_drrs_rescale_planes_equivalent():
    batched = _trace("batched")
    single = _trace("single")
    assert batched["info"]["record_plane"] == "batched"
    assert single["info"]["record_plane"] == "single"
    assert batched["semantic"] == single["semantic"]


def test_removed_columnar_plane_fails_loudly():
    """``"columnar"`` was a third plane once; asking for it must raise the
    ordinary unknown-plane error, never fall back.  ``JobConfig`` is the
    one place a plane is chosen (experiments and the golden capture take
    a ``job_config``)."""
    with pytest.raises(ValueError, match="unknown record_plane"):
        JobConfig(record_plane="columnar")


def _chaos_doc(name, record_plane):
    """One chaos run's report minus the fields that name the plane."""
    report = ChaosHarness(CHAOS_SCENARIOS[name],
                          record_plane=record_plane).run()
    assert report.passed, report.summary()
    doc = report.to_dict()
    assert doc.pop("record_plane") == record_plane
    return doc


def test_q7_noscale_planes_equivalent():
    batched = _trace("batched", system=None)
    single = _trace("single", system=None)
    assert batched["semantic"] == single["semantic"]


@pytest.mark.parametrize("name", sorted(CHAOS_SCENARIOS))
def test_chaos_planes_equivalent(name):
    """Every chaos scenario, batched vs. per-record.

    Recovery and rescales collapse the batched plane only for their own
    window, so the batched
    run really rides carriers between them — and must still produce the
    *same* invariant report: same recoveries (times and restored
    checkpoint ids), same injected faults and stall hit counts, same
    violations (none), same semantic trace.  Only the kernel event count
    and the collapse tally may differ, and the batched plane must dispatch
    strictly fewer events: equal counts mean something collapsed it for
    the whole job again.
    """
    batched = _chaos_doc(name, "batched")
    single = _chaos_doc(name, "single")
    assert batched.pop("kernel_events") < single.pop("kernel_events")
    batched.pop("plane_collapses")  # may be 0: nothing in flight at a crash
    assert single.pop("plane_collapses") == 0
    assert batched == single
