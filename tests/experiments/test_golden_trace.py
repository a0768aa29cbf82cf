"""Golden-trace and determinism regression tests for the hot-path work.

The optimized kernel and record plane must be *bit-identical* in simulated
behaviour to the pre-optimization engine: the golden documents under
``tests/golden/`` were captured at the pre-PR commit, and these tests
re-capture the same scenarios and compare the full semantic subtree for
exact equality (exact floats, exact tie order, exact ScalingMetrics).

Kernel event counts are excluded from golden equality — removing internal
bookkeeping events is allowed — but they must still be deterministic
across runs, which the determinism test checks.
"""

import json
import os

import pytest

from repro.experiments.golden import capture_q7_trace

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "golden")


def _load(name):
    with open(os.path.join(GOLDEN_DIR, name)) as f:
        return json.load(f)


#: DRRS's Record Scheduling counters on this scenario; the baselines'
#: migration handler counts nothing.
DRRS_COUNTERS = {
    "drrs.inter_channel_switches{operator=q7-window}": 74.0,
    "drrs.intra_channel_bypasses{operator=q7-window}": 45.0,
    "drrs.records_rerouted{operator=q7-window}": 3701.0,
}


# The baselines pin both handler modes (committed: otfs, subscale;
# scheduling: schedule, megaphone) and all three coupled-barrier batch
# shapes (one batch: otfs, schedule; back-to-back: subscale; sequential
# Naive Division: megaphone).
@pytest.mark.parametrize("system", ["drrs", "otfs", "schedule", "megaphone",
                                    "subscale"])
def test_rescale_matches_golden(system):
    fresh = capture_q7_trace(system=system, telemetry=True)
    committed = _load(f"q7_{system}_rescale.json")
    assert fresh["semantic"] == committed["semantic"]
    counters = {k: v for k, v in fresh["info"]["counters"].items()
                if k.startswith("drrs.")}
    assert counters == (DRRS_COUNTERS if system == "drrs" else {})


def test_noscale_matches_golden():
    fresh = capture_q7_trace(system=None, telemetry=False)
    committed = _load("q7_noscale.json")
    assert fresh["semantic"] == committed["semantic"]


def test_determinism_rerun_and_telemetry_invariant():
    # The same DRRS-rescale scenario three ways: a fresh run, an identical
    # re-run (each job warms its own routing caches from scratch), and a
    # run with telemetry enabled.  All three must agree on every
    # observable — ScalingMetrics content, record counts, latency digests —
    # and on the kernel event count (tracing must not schedule anything).
    a = capture_q7_trace(telemetry=False)
    b = capture_q7_trace(telemetry=False)
    c = capture_q7_trace(telemetry=True)
    assert a["semantic"] == b["semantic"]
    assert a["info"]["kernel_events"] == b["info"]["kernel_events"]
    assert a["semantic"] == c["semantic"]
    assert a["info"]["kernel_events"] == c["info"]["kernel_events"]
