"""Telemetry under rescale churn: no leaked instruments, stable identity,
no dangling open spans.

Rescaling creates and retires operator instances; the registry keys
instruments by (kind, name, labels) where labels are stable operator /
instance *names*, so repeated scale cycles must converge to a fixed
instrument set rather than growing one instrument per rescale.  The
tracer's per-track open-span stacks must likewise drain once every
subscale has settled.
"""

from repro.core.drrs import DRRSController
from tests.helpers import build_keyed_job, drive


def _churned_job():
    """Drive a job through 2 -> 4 -> 2 -> 4 -> 2 rescale cycles while the
    telemetry sampler reads every instance's queue depth, and return
    everything the tests inspect."""
    job = drive(build_keyed_job(state_bytes_per_group=4e5), until=14.0,
                record_gap=0.004)
    job.enable_telemetry(sample_interval=0.25)
    drrs = DRRSController(job)
    counts = []
    identity_probe = {}

    def churn():
        reg = job.telemetry.registry
        yield job.sim.timeout(1.0)
        identity_probe["counter"] = reg.counter("churn.probe", op="agg")
        identity_probe["pre_set"] = set(map(id, reg.instruments()))
        for target in (4, 2, 4, 2):
            done = drrs.request_rescale("agg", target)
            yield done
            yield job.sim.timeout(0.6)
            counts.append(len(reg.instruments()))

    job.sim.spawn(churn(), name="churn")
    job.run(until=16.0)
    return job, counts, identity_probe


def test_rescale_churn_does_not_leak_instruments():
    job, counts, probe = _churned_job()
    assert len(counts) == 4, "not every rescale completed"
    # Labels are stable operator/instance/channel names, so the instrument
    # universe is bounded by the (bounded) instance-pair label space: once
    # every migration path has been exercised the set must stop growing —
    # the final out/in cycle may not mint a single new instrument.
    assert counts[3] == counts[2], (
        f"instrument set grew across identical cycles: {counts}")
    # Get-or-create identity survives churn.
    reg = job.telemetry.registry
    assert reg.counter("churn.probe", op="agg") is probe["counter"]
    # Every pre-churn instrument is still the same object (never
    # re-created behind callers' backs).
    post_set = set(map(id, reg.instruments()))
    assert probe["pre_set"] <= post_set


def test_no_open_spans_after_churn_settles():
    job, counts, probe = _churned_job()
    tracer = job.telemetry.tracer
    dangling = {track: [s.name for s in stack]
                for track, stack in tracer._open.items() if stack}
    assert not dangling, f"open spans left after churn: {dangling}"
    # Sanity: churn actually produced rescale/transfer spans to begin with.
    assert any(s.category == "migration" for s in tracer.spans)
    assert any(s.category == "transfer" for s in tracer.spans)

