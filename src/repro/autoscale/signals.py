"""Scaling signals: the telemetry taps the elasticity control loop reads.

:class:`ScalingSignals` is the sensor half of the autoscaler — the
``ScalingMetricsSource`` role in control planes like nanofaas
(queueDepth / inFlight → setEffectiveConcurrency).  Each call to
:meth:`ScalingSignals.sample` reads the running job *without scheduling
any simulation events* and folds the raw taps into rolling windows with
EWMA smoothing:

* **per-instance busy fraction** — delta of ``OperatorInstance.
  busy_seconds`` over the sampling interval, per live instance (max and
  mean are the policy-facing aggregates; max is robust under key skew);
* **channel queue depth** — visibility-aware logical depth of the
  operator's input channels plus the source admission backlog;
* **backpressure stall** — senders into the operator currently blocked on
  a full output cache, integrated over time into ``stall_seconds``;
* **watermark lag** — how far the operator's event-time frontier trails
  the simulation clock;
* **source rate** — physical records/s emitted by the sources (the
  arrival-rate signal the predictive policy forecasts).

Sampling tolerates **instance churn**: rescales create and destroy
instances between samples, so per-instance cursors are keyed by live
object identity and pruned every sample — no registrations leak across
subscales, and an instance re-created at the same index gets a fresh
cursor (stable signal identity by instance *name*).

The sampler never mutates engine state; when the job has telemetry
enabled it additionally publishes each aggregate as ``autoscale.*``
gauges so traces and experiments can correlate decisions with signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..engine.runtime import StreamJob

__all__ = ["SignalSnapshot", "EwmaWindow", "ScalingSignals"]


@dataclass
class SignalSnapshot:
    """One sampling instant, raw and smoothed, as the policies see it."""

    time: float
    operator: str
    parallelism: int
    #: Busy fraction over the last interval, per live instance (by name,
    #: sorted) — max/mean are derived from exactly these values.
    busy_by_instance: Dict[str, float] = field(default_factory=dict)
    busy_max: float = 0.0
    busy_mean: float = 0.0
    #: Logical elements queued at the operator's input channels.
    queue_depth: int = 0
    #: Elements waiting in source admission queues (consumer lag proxy).
    admission_backlog: int = 0
    #: Channels into the operator whose sender is blocked right now.
    blocked_channels: int = 0
    #: Cumulative blocked-channel-seconds since the sampler started.
    stall_seconds: float = 0.0
    #: Seconds the operator's watermark frontier trails the sim clock.
    watermark_lag: float = 0.0
    #: Physical records/s emitted by the sources over the last interval.
    source_rate: float = 0.0
    #: EWMA-smoothed aggregates (same keys as the raw fields).
    ewma: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "t": round(self.time, 6),
            "parallelism": self.parallelism,
            "busy_max": round(self.busy_max, 6),
            "busy_mean": round(self.busy_mean, 6),
            "queue_depth": self.queue_depth,
            "admission_backlog": self.admission_backlog,
            "blocked_channels": self.blocked_channels,
            "stall_seconds": round(self.stall_seconds, 6),
            "watermark_lag": round(self.watermark_lag, 6),
            "source_rate": round(self.source_rate, 3),
            "ewma": {k: round(v, 6) for k, v in sorted(self.ewma.items())},
        }


class EwmaWindow:
    """Rolling window of the last N samples plus an EWMA of all of them.

    ``alpha`` is the weight of the newest sample; the EWMA seeds with the
    first sample (no zero-bias warm-up).
    """

    def __init__(self, size: int = 6, alpha: float = 0.4):
        if size < 1:
            raise ValueError("size must be >= 1")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.size = size
        self.alpha = alpha
        self.samples: List[float] = []
        self.ewma: Optional[float] = None

    def push(self, value: float) -> float:
        self.samples.append(value)
        if len(self.samples) > self.size:
            self.samples.pop(0)
        if self.ewma is None:
            self.ewma = value
        else:
            self.ewma += self.alpha * (value - self.ewma)
        return self.ewma

    @property
    def full(self) -> bool:
        return len(self.samples) >= self.size

    @property
    def mean(self) -> float:
        return (sum(self.samples) / len(self.samples)
                if self.samples else 0.0)

    @property
    def latest(self) -> float:
        return self.samples[-1] if self.samples else 0.0

    def count_above(self, threshold: float) -> int:
        return sum(1 for v in self.samples if v > threshold)

    def count_below(self, threshold: float) -> int:
        return sum(1 for v in self.samples if v < threshold)


#: The aggregates every snapshot smooths.
_SMOOTHED = ("busy_max", "busy_mean", "queue_depth", "watermark_lag",
             "source_rate")


class ScalingSignals:
    """Samples one operator's live signals into EWMA rolling windows."""

    def __init__(self, job: StreamJob, operator: str,
                 window: int = 6, alpha: float = 0.4,
                 history_limit: int = 4096):
        if operator not in job.graph.operators:
            raise ValueError(f"unknown operator {operator!r}")
        self.job = job
        self.operator = operator
        self.windows: Dict[str, EwmaWindow] = {
            name: EwmaWindow(size=window, alpha=alpha) for name in _SMOOTHED}
        self.history: List[SignalSnapshot] = []
        self.history_limit = history_limit
        self.stall_seconds = 0.0
        #: id(instance) -> busy_seconds at the previous sample; pruned to
        #: live instances every sample (churn safety).
        self._busy_cursor: Dict[int, float] = {}
        self._last_time: Optional[float] = None
        #: Source records already counted by an earlier sample.
        self._source_seen = 0
        self._last_blocked = 0

    # -- raw taps -------------------------------------------------------------

    def _instances(self):
        return self.job.instances(self.operator)

    def _queue_depth(self) -> int:
        return sum(len(channel) for inst in self._instances()
                   for channel in inst.input_channels)

    def _admission_backlog(self) -> int:
        return sum(source.backlog for source in self.job.sources())

    def _blocked_channels(self) -> int:
        blocked = 0
        for _sender, edge in self.job.senders_to(self.operator):
            for channel in edge.channels:
                if channel._send_waiters:
                    blocked += 1
        return blocked

    def _watermark_lag(self) -> float:
        now = self.job.sim.now
        frontier = min((inst.current_watermark
                        for inst in self._instances()),
                       default=float("-inf"))
        if frontier == float("-inf"):
            return 0.0  # no watermark seen yet: lag is undefined, not huge
        return max(0.0, now - frontier)

    def _source_delta(self) -> int:
        total = self.job.metrics.total_source_output()
        delta = total - self._source_seen
        self._source_seen = total
        return delta

    # -- sampling -------------------------------------------------------------

    def sample(self) -> SignalSnapshot:
        """Read every tap, advance the windows, return the snapshot.

        The first sample establishes cursors and reports zero rates (there
        is no interval to rate over yet).
        """
        now = self.job.sim.now
        instances = self._instances()
        interval = (now - self._last_time
                    if self._last_time is not None else 0.0)

        busy: Dict[str, float] = {}
        live_ids = set()
        for inst in instances:
            key = id(inst)
            live_ids.add(key)
            prev = self._busy_cursor.get(key)
            if prev is None or interval <= 0:
                fraction = 0.0
            else:
                fraction = min(
                    max((inst.busy_seconds - prev) / interval, 0.0), 1.0)
            busy[inst.name] = fraction
            self._busy_cursor[key] = inst.busy_seconds
        # Prune cursors of decommissioned instances (churn safety).
        for key in [k for k in self._busy_cursor if k not in live_ids]:
            del self._busy_cursor[key]

        fractions = list(busy.values())
        blocked = self._blocked_channels()
        # Integrate stall time: the previous blocked count held (to first
        # order) for the interval that just elapsed.
        self.stall_seconds += self._last_blocked * interval
        self._last_blocked = blocked
        source_delta = self._source_delta()

        snapshot = SignalSnapshot(
            time=now,
            operator=self.operator,
            parallelism=len(instances),
            busy_by_instance=dict(sorted(busy.items())),
            busy_max=max(fractions) if fractions else 0.0,
            busy_mean=(sum(fractions) / len(fractions)
                       if fractions else 0.0),
            queue_depth=self._queue_depth(),
            admission_backlog=self._admission_backlog(),
            blocked_channels=blocked,
            stall_seconds=self.stall_seconds,
            watermark_lag=self._watermark_lag(),
            source_rate=(source_delta / interval if interval > 0 else 0.0),
        )
        for name in _SMOOTHED:
            snapshot.ewma[name] = self.windows[name].push(
                getattr(snapshot, name))
        self._last_time = now
        self.history.append(snapshot)
        if len(self.history) > self.history_limit:
            del self.history[:len(self.history) - self.history_limit]
        self._publish(snapshot)
        return snapshot

    def _publish(self, snapshot: SignalSnapshot) -> None:
        telemetry = self.job.telemetry
        if telemetry is None:
            return
        gauge = telemetry.registry.gauge
        op = self.operator
        gauge("autoscale.busy_max", operator=op).set(snapshot.busy_max)
        gauge("autoscale.busy_mean", operator=op).set(snapshot.busy_mean)
        gauge("autoscale.queue_depth", operator=op).set(
            snapshot.queue_depth)
        gauge("autoscale.admission_backlog", operator=op).set(
            snapshot.admission_backlog)
        gauge("autoscale.blocked_channels", operator=op).set(
            snapshot.blocked_channels)
        gauge("autoscale.stall_seconds", operator=op).set(
            snapshot.stall_seconds)
        gauge("autoscale.watermark_lag", operator=op).set(
            snapshot.watermark_lag)
        gauge("autoscale.source_rate", operator=op).set(
            snapshot.source_rate)

    # -- derived --------------------------------------------------------------

    def rate_history(self, samples: int) -> List[tuple]:
        """The last N ``(time, source_rate)`` pairs (forecasting input)."""
        tail = self.history[-samples:]
        return [(s.time, s.source_rate) for s in tail]
