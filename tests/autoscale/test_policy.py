"""Policy unit tests: hysteresis, hold, cooldown, bounds, forecasting."""

import pytest

from repro.autoscale import (PredictivePolicy, QueueDepthPolicy,
                             SignalSnapshot, UtilizationThresholdPolicy)


def snap(t, parallelism, busy_max=0.0, busy_mean=None, queue_depth=0,
         backlog=0, rate=0.0):
    """A fabricated snapshot whose smoothed values equal the raw ones."""
    if busy_mean is None:
        busy_mean = busy_max
    s = SignalSnapshot(
        time=t, operator="agg", parallelism=parallelism,
        busy_max=busy_max, busy_mean=busy_mean, queue_depth=queue_depth,
        admission_backlog=backlog, source_rate=rate)
    s.ewma = {"busy_max": busy_max, "busy_mean": busy_mean,
              "queue_depth": float(queue_depth), "watermark_lag": 0.0,
              "source_rate": rate}
    return s


# -- base validation ----------------------------------------------------------


def test_base_rejects_bad_bounds():
    with pytest.raises(ValueError):
        UtilizationThresholdPolicy(min_parallelism=0)
    with pytest.raises(ValueError):
        UtilizationThresholdPolicy(min_parallelism=4, max_parallelism=2)
    with pytest.raises(ValueError):
        UtilizationThresholdPolicy(hold_ticks=0)


def test_utilization_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        UtilizationThresholdPolicy(high=0.5, low=0.6, target=0.55)
    with pytest.raises(ValueError):
        UtilizationThresholdPolicy(metric="median")


def test_cooldown_in_defaults_to_double():
    p = UtilizationThresholdPolicy(cooldown=10.0)
    assert p.cooldown_in == 20.0


# -- utilization policy -------------------------------------------------------


def test_hold_ticks_suppress_single_sample_noise():
    p = UtilizationThresholdPolicy(high=0.8, low=0.3, target=0.6,
                                   hold_ticks=2, cooldown=0.0)
    assert p.decide(snap(1.0, 4, busy_max=0.95), []) is None      # 1 tick
    d = p.decide(snap(2.0, 4, busy_max=0.95), [])                 # 2 ticks
    assert d is not None and d.kind == "scale-out"


def test_scale_out_sizes_proportionally():
    p = UtilizationThresholdPolicy(high=0.8, low=0.3, target=0.6,
                                   hold_ticks=1, cooldown=0.0,
                                   max_parallelism=64)
    d = p.decide(snap(1.0, 4, busy_max=0.9), [])
    # ceil(4 * 0.9 / 0.6) = 6
    assert d.target == 6


def test_scale_in_after_sustained_idle():
    p = UtilizationThresholdPolicy(high=0.8, low=0.3, target=0.6,
                                   hold_ticks=2, cooldown=0.0,
                                   cooldown_in=0.0, min_parallelism=1)
    p.decide(snap(1.0, 8, busy_max=0.1), [])
    d = p.decide(snap(2.0, 8, busy_max=0.1), [])
    assert d is not None and d.kind == "scale-in"
    assert d.target == 2  # ceil(8 * 0.1 / 0.6)


def test_mixed_signals_reset_hold_counters():
    p = UtilizationThresholdPolicy(high=0.8, low=0.3, target=0.6,
                                   hold_ticks=2, cooldown=0.0)
    p.decide(snap(1.0, 4, busy_max=0.95), [])
    p.decide(snap(2.0, 4, busy_max=0.5), [])   # back in the deadband
    assert p.decide(snap(3.0, 4, busy_max=0.95), []) is None


def test_cooldown_blocks_back_to_back_decisions():
    p = UtilizationThresholdPolicy(high=0.8, low=0.3, target=0.6,
                                   hold_ticks=1, cooldown=30.0)
    d = p.decide(snap(1.0, 4, busy_max=0.95), [])
    assert d is not None
    p.note_applied(2.0, d.target)
    assert p.decide(snap(3.0, 6, busy_max=0.95), []) is None     # cooling
    assert p.decide(snap(40.0, 6, busy_max=0.95), []) is not None


def test_clamps_to_max_parallelism():
    p = UtilizationThresholdPolicy(high=0.8, low=0.3, target=0.6,
                                   hold_ticks=1, cooldown=0.0,
                                   max_parallelism=5)
    d = p.decide(snap(1.0, 4, busy_max=1.0), [])
    assert d.target == 5
    assert p.decide(snap(2.0, 5, busy_max=1.0), []) is None  # at the cap


def test_mean_metric_controls_on_mean():
    p = UtilizationThresholdPolicy(high=0.8, low=0.3, target=0.6,
                                   metric="mean", hold_ticks=1,
                                   cooldown=0.0)
    # hot max but modest mean: the mean-metric policy stays put
    assert p.decide(snap(1.0, 4, busy_max=0.95, busy_mean=0.5), []) is None


# -- queue-depth policy -------------------------------------------------------


def test_queue_depth_scale_out_caps_at_doubling():
    p = QueueDepthPolicy(high_depth=10.0, low_depth=1.0, hold_ticks=1,
                         cooldown=0.0, max_parallelism=64)
    d = p.decide(snap(1.0, 4, queue_depth=400), [])
    assert d is not None and d.kind == "scale-out"
    assert d.target == 8  # overflow 10x, bounded to 2 * current


def test_queue_depth_scale_in_waits_for_empty_backlog():
    p = QueueDepthPolicy(high_depth=10.0, low_depth=1.0, hold_ticks=1,
                         cooldown=0.0, cooldown_in=0.0, min_parallelism=1)
    # Pressure is below the low-water mark, but draining backlog blocks it.
    assert p.decide(snap(1.0, 4, queue_depth=0, backlog=2), []) is None
    d = p.decide(snap(2.0, 4, queue_depth=0, backlog=0), [])
    assert d is not None and d.kind == "scale-in" and d.target == 3


# -- predictive policy --------------------------------------------------------


def _feed(policy, snapshots):
    """Feed snapshots through decide() the way the controller does."""
    history, decisions = [], []
    for s in snapshots:
        history.append(s)
        decisions.append(policy.decide(s, list(history)))
    return decisions


def test_predictive_scales_ahead_of_a_ramp():
    p = PredictivePolicy(target=0.6, high=0.8, low=0.3, lead_time=10.0,
                         fit_samples=3, hold_ticks=2, cooldown=0.0,
                         max_parallelism=64)
    # Rising rate, busy still moderate: reactive would not fire yet, the
    # trend should.  busy_mean 0.5 at p=4 and 1000 rec/s calibrates
    # work/record to ~2 ms.
    ramp = [snap(t, 4, busy_max=0.55, busy_mean=0.5,
                 rate=1000.0 + 200.0 * i)
            for i, t in enumerate((0.0, 2.0, 4.0, 6.0, 8.0))]
    decisions = _feed(p, ramp)
    fired = [d for d in decisions if d is not None]
    assert fired, "trend never triggered a pre-scale"
    assert fired[0].kind == "scale-out"
    assert fired[0].target > 4
    assert "forecast" in fired[0].reason


def test_predictive_vetoes_scale_in_during_rising_trend():
    p = PredictivePolicy(target=0.6, high=0.8, low=0.3, lead_time=10.0,
                         fit_samples=3, hold_ticks=1, cooldown=0.0,
                         cooldown_in=0.0, max_parallelism=8)
    # Saturate the clamp so forecast scale-out cannot fire (target == 8),
    # while low busy makes the reactive fallback want to scale in: the
    # rising trend must veto it.
    ramp = [snap(t, 8, busy_max=0.1, busy_mean=0.1,
                 rate=1000.0 + 400.0 * i)
            for i, t in enumerate((0.0, 2.0, 4.0, 6.0, 8.0))]
    decisions = _feed(p, ramp)
    assert all(d is None for d in decisions[2:]), \
        "scale-in fired into a rising trend"


def test_predictive_flat_trend_falls_back_to_reactive():
    p = PredictivePolicy(target=0.6, high=0.8, low=0.3, lead_time=10.0,
                         fit_samples=3, hold_ticks=1, cooldown=0.0)
    flat = [snap(t, 4, busy_max=0.95, busy_mean=0.9, rate=1000.0)
            for t in (0.0, 2.0, 4.0, 6.0)]
    decisions = _feed(p, flat)
    fired = [d for d in decisions if d is not None]
    assert fired and fired[0].kind == "scale-out"
    assert fired[0].reason.startswith("reactive-fallback:")


def test_predictive_validates_parameters():
    with pytest.raises(ValueError):
        PredictivePolicy(fit_samples=1)
    with pytest.raises(ValueError):
        PredictivePolicy(high=0.5, low=0.6, target=0.55)

