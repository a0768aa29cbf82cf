"""Pluggable scaling policies: signals in, parallelism targets out.

A policy is a pure decision function over :class:`~.signals.SignalSnapshot`
histories — it never touches the job and never schedules events, so every
policy is deterministic given the signal stream.  The
:class:`~.controller.AutoscaleController` owns actuation (issuing DRRS
subscales, serializing with in-flight operations); policies own *when and
how far* to move.

Shared semantics (see ``docs/autoscaling.md``):

* **hysteresis** — scale-out and scale-in trigger on different thresholds
  with a target utilisation between them, so the post-scaling operating
  point does not immediately re-trigger the opposite decision;
* **hold** — a threshold must be breached for ``hold_ticks`` consecutive
  samples before a decision fires (single-sample noise never rescales);
* **cooldown** — after an applied rescale, no further decision for
  ``cooldown`` simulated seconds (scale-in waits ``cooldown_in``, which
  defaults longer: shedding capacity too eagerly oscillates);
* **bounds** — targets clamp to ``[min_parallelism, max_parallelism]``.

Shipped policies:

* :class:`UtilizationThresholdPolicy` — reactive, on per-instance busy
  fraction (max by default: robust under key skew).
* :class:`QueueDepthPolicy` — reactive, on per-instance logical queue
  depth plus admission backlog (useful when service times are unknown).
* :class:`PredictivePolicy` — forecasts the arrival rate by a least-squares
  trend over recent samples and scales *ahead* of the ramp, sizing from a
  self-calibrated work-per-record estimate (DS2-style useful work).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .signals import SignalSnapshot

__all__ = ["ScalingDecision", "AutoscalePolicy",
           "UtilizationThresholdPolicy", "QueueDepthPolicy",
           "PredictivePolicy"]


@dataclass
class ScalingDecision:
    """What a policy wants done, and why (for the decision log)."""

    target: int
    kind: str  # "scale-out" | "scale-in"
    reason: str

    def to_dict(self) -> dict:
        return {"target": self.target, "kind": self.kind,
                "reason": self.reason}


class AutoscalePolicy:
    """Base: bounds, hysteresis bookkeeping, cooldown clocks."""

    name = "abstract"

    def __init__(self, min_parallelism: int = 1,
                 max_parallelism: int = 64,
                 cooldown: float = 20.0,
                 cooldown_in: Optional[float] = None,
                 hold_ticks: int = 2,
                 min_samples: int = 6):
        if min_parallelism < 1:
            raise ValueError("min_parallelism must be >= 1")
        if max_parallelism < min_parallelism:
            raise ValueError("max_parallelism must be >= min_parallelism")
        if hold_ticks < 1:
            raise ValueError("hold_ticks must be >= 1")
        self.min_parallelism = min_parallelism
        self.max_parallelism = max_parallelism
        self.cooldown = cooldown
        #: Scale-in cooldown; defaults to 2x the scale-out cooldown.
        self.cooldown_in = (cooldown_in if cooldown_in is not None
                            else 2.0 * cooldown)
        self.hold_ticks = hold_ticks
        #: Snapshots required before any decision: the EWMAs must warm
        #: up before smoothed values mean anything (cold EWMAs read
        #: as idle and would trigger a bogus launch-time scale-in).
        self.min_samples = min_samples
        self._last_applied: float = float("-inf")
        self._over = 0
        self._under = 0

    # -- controller callbacks -------------------------------------------------

    def note_applied(self, time: float, target: int) -> None:
        """The controller committed a rescale this policy asked for."""
        self._last_applied = time
        self._over = 0
        self._under = 0

    def _cooling(self, now: float, kind: str) -> bool:
        wait = self.cooldown if kind == "scale-out" else self.cooldown_in
        return now - self._last_applied < wait

    def _clamp(self, target: int) -> int:
        return max(self.min_parallelism,
                   min(self.max_parallelism, target))

    # -- interface ------------------------------------------------------------

    def decide(self, snapshot: SignalSnapshot,
               history: List[SignalSnapshot]
               ) -> Optional[ScalingDecision]:
        """Return a decision, or None to hold.  Called once per tick."""
        raise NotImplementedError


class UtilizationThresholdPolicy(AutoscalePolicy):
    """Reactive scale on sustained per-instance busy fraction.

    Scale-out sizes to ``ceil(parallelism * busy / target)`` — enough
    capacity that the *measured* load lands at the target utilisation.
    Scale-in uses the mean (a single idle instance must not shed
    capacity the hot ones need) and the same proportional sizing.
    """

    name = "utilization"

    def __init__(self, high: float = 0.80, low: float = 0.35,
                 target: float = 0.60, metric: str = "max", **kwargs):
        super().__init__(**kwargs)
        if not 0.0 < low < target < high:
            raise ValueError("need 0 < low < target < high")
        if metric not in ("max", "mean"):
            raise ValueError(f"unknown metric {metric!r}")
        self.high = high
        self.low = low
        self.target = target
        self.metric = metric

    def _signal(self, snapshot: SignalSnapshot) -> float:
        key = "busy_max" if self.metric == "max" else "busy_mean"
        return snapshot.ewma.get(key, getattr(snapshot, key))

    def decide(self, snapshot, history):
        now = snapshot.time
        busy = self._signal(snapshot)
        current = snapshot.parallelism
        if busy > self.high:
            self._over += 1
            self._under = 0
        elif busy < self.low:
            self._under += 1
            self._over = 0
        else:
            self._over = 0
            self._under = 0
        if self._over >= self.hold_ticks \
                and not self._cooling(now, "scale-out"):
            # Proportional sizing on the trigger metric itself: enough
            # instances that the *hottest* one lands at the target (under
            # key skew the hot instance, not the mean, bounds latency).
            target = self._clamp(max(
                current + 1,
                math.ceil(current * busy / self.target)))
            if target > current:
                return ScalingDecision(
                    target, "scale-out",
                    f"{self.metric} busy {busy:.2f} > {self.high:.2f} "
                    f"for {self._over} ticks")
        if self._under >= self.hold_ticks \
                and not self._cooling(now, "scale-in"):
            target = self._clamp(max(
                1, math.ceil(current * busy / self.target)))
            if target < current:
                return ScalingDecision(
                    target, "scale-in",
                    f"{self.metric} busy {busy:.2f} < {self.low:.2f} "
                    f"for {self._under} ticks")
        return None


class QueueDepthPolicy(AutoscalePolicy):
    """Reactive scale on sustained per-instance logical queue depth.

    The signal is ``(operator inbox depth + admission backlog) /
    parallelism`` — the nanofaas ``queueDepth`` shape.  Above
    ``high_depth`` for the hold period, scale out proportionally to the
    overflow; below ``low_depth`` (and with no admission backlog), scale
    in one step at a time.
    """

    name = "queue-depth"

    def __init__(self, high_depth: float = 24.0, low_depth: float = 2.0,
                 step_in: int = 1, **kwargs):
        super().__init__(**kwargs)
        if not 0.0 <= low_depth < high_depth:
            raise ValueError("need 0 <= low_depth < high_depth")
        self.high_depth = high_depth
        self.low_depth = low_depth
        self.step_in = step_in

    @staticmethod
    def _depth(snapshot: SignalSnapshot) -> float:
        total = snapshot.queue_depth + snapshot.admission_backlog
        return total / max(snapshot.parallelism, 1)

    def decide(self, snapshot, history):
        now = snapshot.time
        depth = self._depth(snapshot)
        current = snapshot.parallelism
        if depth > self.high_depth:
            self._over += 1
            self._under = 0
        elif depth < self.low_depth and snapshot.admission_backlog == 0:
            self._under += 1
            self._over = 0
        else:
            self._over = 0
            self._under = 0
        if self._over >= self.hold_ticks \
                and not self._cooling(now, "scale-out"):
            # Each extra instance drains roughly one instance-share of the
            # overflow; bound the jump to doubling per decision.
            overflow = depth / self.high_depth
            target = self._clamp(min(
                2 * current, max(current + 1, int(current * overflow))))
            if target > current:
                return ScalingDecision(
                    target, "scale-out",
                    f"queue depth/instance {depth:.1f} > "
                    f"{self.high_depth:.1f} for {self._over} ticks")
        if self._under >= self.hold_ticks \
                and not self._cooling(now, "scale-in"):
            target = self._clamp(current - self.step_in)
            if target < current:
                return ScalingDecision(
                    target, "scale-in",
                    f"queue depth/instance {depth:.1f} < "
                    f"{self.low_depth:.1f} for {self._under} ticks")
        return None


class PredictivePolicy(AutoscalePolicy):
    """Forecast the arrival rate; scale ahead of the ramp.

    Fits a least-squares line to the last ``fit_samples`` smoothed
    source-rate samples and extrapolates ``lead_time`` seconds ahead —
    roughly the time a DRRS rescale plus signal hold would take, so
    capacity lands *before* the load does.  Required parallelism comes
    from a self-calibrated **work-per-record** estimate: operator busy
    seconds accrued per source record (EWMA), which transparently folds
    in upstream filtering and per-record cost without configuration.

    Falls back to reactive utilisation behaviour when the forecast has
    nothing to say (flat trend), so steady-state behaviour matches the
    reactive policy and the *difference* is purely ramp anticipation.
    """

    name = "predictive"

    def __init__(self, target: float = 0.60, high: float = 0.80,
                 low: float = 0.35, lead_time: float = 15.0,
                 fit_samples: int = 5, min_rate_gain: float = 1.08,
                 calibration_alpha: float = 0.3, metric: str = "max",
                 **kwargs):
        super().__init__(**kwargs)
        if not 0.0 < low < target < high:
            raise ValueError("need 0 < low < target < high")
        if fit_samples < 2:
            raise ValueError("fit_samples must be >= 2")
        self.target = target
        self.high = high
        self.low = low
        self.lead_time = lead_time
        self.fit_samples = fit_samples
        #: Forecast must exceed the current rate by this factor to count
        #: as a ramp (deadband against trend noise).
        self.min_rate_gain = min_rate_gain
        self.calibration_alpha = calibration_alpha
        #: EWMA of operator-busy-seconds per source record.
        self._work_per_record: Optional[float] = None
        self._reactive = UtilizationThresholdPolicy(
            high=high, low=low, target=target, metric=metric,
            min_parallelism=self.min_parallelism,
            max_parallelism=self.max_parallelism,
            cooldown=self.cooldown, cooldown_in=self.cooldown_in,
            hold_ticks=self.hold_ticks,
            min_samples=self.min_samples)

    def note_applied(self, time: float, target: int) -> None:
        super().note_applied(time, target)
        self._reactive.note_applied(time, target)

    # -- calibration ----------------------------------------------------------

    def _calibrate(self, snapshot: SignalSnapshot,
                   history: List[SignalSnapshot]) -> None:
        if len(history) < 2:
            return
        previous = history[-2]
        interval = snapshot.time - previous.time
        if interval <= 0 or snapshot.source_rate <= 0:
            return
        records = snapshot.source_rate * interval
        busy_seconds = snapshot.busy_mean * snapshot.parallelism * interval
        if records < 1.0 or busy_seconds <= 0:
            return
        sample = busy_seconds / records
        if self._work_per_record is None:
            self._work_per_record = sample
        else:
            self._work_per_record += self.calibration_alpha * (
                sample - self._work_per_record)

    # -- forecasting ----------------------------------------------------------

    def _forecast_rate(self, history: List[SignalSnapshot]
                       ) -> Optional[float]:
        tail = history[-self.fit_samples:]
        if len(tail) < self.fit_samples:
            return None
        xs = [s.time for s in tail]
        ys = [s.ewma.get("source_rate", s.source_rate) for s in tail]
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        var = sum((x - mean_x) ** 2 for x in xs)
        if var <= 0:
            return None
        slope = sum((x - mean_x) * (y - mean_y)
                    for x, y in zip(xs, ys)) / var
        horizon = xs[-1] + self.lead_time
        return max(0.0, mean_y + slope * (horizon - mean_x))

    def required_parallelism(self, rate: float) -> Optional[int]:
        if self._work_per_record is None:
            return None
        need = rate * self._work_per_record / self.target
        return self._clamp(max(1, math.ceil(need)))

    # -- decision -------------------------------------------------------------

    def decide(self, snapshot, history):
        self._calibrate(snapshot, history)
        now = snapshot.time
        current = snapshot.parallelism
        forecast = self._forecast_rate(history)
        current_rate = snapshot.ewma.get("source_rate",
                                         snapshot.source_rate)
        if (forecast is not None and current_rate > 0
                and forecast > current_rate * self.min_rate_gain
                and not self._cooling(now, "scale-out")):
            required = self.required_parallelism(forecast)
            if required is not None and required > current:
                return ScalingDecision(
                    required, "scale-out",
                    f"forecast {forecast:.0f} rec/s in "
                    f"{self.lead_time:.0f}s (now {current_rate:.0f}), "
                    f"work/record {self._work_per_record * 1e6:.0f}us")
        # Steady state and scale-in: behave exactly like the reactive
        # utilisation policy (shared cooldown clocks via note_applied).
        fallback = self._reactive.decide(snapshot, history)
        if fallback is None:
            return None
        if (fallback.kind == "scale-in" and forecast is not None
                and current_rate > 0 and forecast > current_rate):
            # The trend says load is about to rise: shedding the capacity
            # we pre-provisioned would undo the anticipation.
            return None
        fallback.reason = "reactive-fallback: " + fallback.reason
        return fallback
