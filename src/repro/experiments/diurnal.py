"""The diurnal-day scenario: a compressed day of Twitch traffic under
closed-loop autoscaling.

One run compresses a day into ``duration`` simulated seconds of the
synthetic Twitch workload: a quiet night, a morning ramp, a midday
flash crowd (a popular channel going live — the arrival rate spikes and
channel popularity rotates), an evening ramp to the daily peak, and a
wind-down.  The arrival-rate curve is piecewise linear
(:data:`DAY_POINTS`, multipliers on the base rate over normalized day
time) and drives :class:`~..workloads.twitch.TwitchWorkload` through its
``rate_profile`` hook; popularity shifts rotate the Zipf head at the
flash crowd and the evening peak.

The **policy comparison** (:func:`compare_policies`) runs the same
seeded day under

* ``static-peak`` — no controller, provisioned for the daily peak the
  whole day (the StreamShield strawman);
* ``reactive`` — :class:`~..autoscale.UtilizationThresholdPolicy`;
* ``predictive`` — :class:`~..autoscale.PredictivePolicy`;
* optionally ``queue-depth``,

and reports, per policy: **SLO attainment** (fraction of
``slo_window``-second windows whose windowed p99 latency meets the SLO),
violations inside the declared **ramp windows** (where reactive policies
structurally lag), and **instance-seconds** consumed by the scaling
operator (∫ parallelism dt).  The acceptance criteria from ROADMAP item
1 are evaluated into ``criteria``: reactive holds the SLO at ≥ 30%
instance-second savings over static peak, and predictive strictly
reduces ramp-window violations versus reactive.

Every run is a pure function of (scale, seed): the report dict is
byte-identical across repeats, which the CI smoke job asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..autoscale import (AutoscaleController, PredictivePolicy,
                         QueueDepthPolicy, UtilizationThresholdPolicy)
from ..core.drrs import DRRSController
from ..workloads.twitch import TwitchConfig, TwitchWorkload

__all__ = ["DiurnalConfig", "DAY_POINTS", "RAMP_WINDOWS", "day_profile",
           "run_diurnal", "compare_policies", "DIURNAL_POLICIES"]

#: Piecewise-linear arrival-rate multipliers over normalized day time:
#: night plateau, morning ramp, midday flash crowd, evening peak,
#: wind-down.
DAY_POINTS: Tuple[Tuple[float, float], ...] = (
    (0.00, 0.35), (0.20, 0.35),                # night
    (0.32, 1.00), (0.40, 0.95),                # morning ramp → midday
    (0.44, 1.80), (0.48, 1.80), (0.50, 0.95),  # flash crowd (steep rise
                                               # with a short leading edge)
    (0.58, 1.00),                              # afternoon
    (0.70, 1.55), (0.78, 1.55),                # evening ramp → peak
    (0.88, 0.45), (1.00, 0.40),                # wind-down
)

#: Normalized windows where the load is ramping up — where reactive
#: policies structurally trail the curve and predictive ones should win.
RAMP_WINDOWS: Tuple[Tuple[float, float], ...] = (
    (0.20, 0.35),   # morning ramp (plus settle margin)
    (0.40, 0.52),   # flash crowd
    (0.58, 0.73),   # evening ramp
)

DIURNAL_POLICIES = ("static-peak", "reactive", "predictive",
                    "queue-depth")


def day_profile(points: Tuple[Tuple[float, float], ...] = DAY_POINTS,
                duration: float = 300.0) -> Callable[[float], float]:
    """The piecewise-linear day curve as a ``time -> multiplier`` callable."""
    if len(points) < 2:
        raise ValueError("need at least two profile points")

    def profile(t: float) -> float:
        frac = min(max(t / duration, 0.0), 1.0)
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if frac <= x1:
                if x1 == x0:
                    return y1
                return y0 + (y1 - y0) * (frac - x0) / (x1 - x0)
        return points[-1][1]

    return profile


@dataclass
class DiurnalConfig:
    """One compressed-day run.  ``scale`` presets pick the timings."""

    scale: str = "smoke"        # smoke | quick | paper
    seed: int = 7
    #: Windowed-p99 SLO in seconds (windowed p99 of end-to-end marker
    #: latency, which includes admission-queue wait and the hot-instance
    #: queue under Zipf skew — hence seconds, not milliseconds).
    slo: float = 1.5
    #: SLO evaluation window (seconds).
    slo_window: float = 5.0
    #: The SLO is "held" when at least this fraction of windows meet the
    #: windowed p99 bound (the StreamShield-style attainment target).
    attainment_target: float = 0.90
    #: Base arrival rate (multiplied by the day curve).
    base_rate: float = 4_000.0
    #: Target utilisation used to size static-peak provisioning.
    peak_sizing_target: float = 0.70
    #: Hot-instance-to-mean busy ratio the sizing must absorb: under the
    #: workload's Zipf(0.7) key skew the hottest instance carries ~1.4x
    #: the mean load, and it — not the mean — bounds tail latency.
    skew_headroom: float = 1.45
    #: Batch entities per simulated record for this scenario: finer than
    #: the default 100 so one queued entity is a ~37 ms service lump, not
    #: 150 ms — the windowed p99 then reflects load, not quantisation.
    batch_size: int = 25
    #: Skip this many initial seconds when scoring SLO windows (fill
    #: transient of the sliding windows, identical for every policy).
    measure_start: float = 15.0
    day_points: Tuple[Tuple[float, float], ...] = DAY_POINTS
    ramp_windows: Tuple[Tuple[float, float], ...] = RAMP_WINDOWS
    #: Filled in by ``__post_init__`` from ``scale`` unless overridden.
    duration: Optional[float] = None
    control_interval: Optional[float] = None
    extra: Dict = field(default_factory=dict)

    _SCALES = {
        "smoke": {"duration": 180.0, "control_interval": 2.0},
        "quick": {"duration": 420.0, "control_interval": 3.0},
        "paper": {"duration": 1200.0, "control_interval": 5.0},
    }

    def __post_init__(self):
        if self.scale not in self._SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; "
                f"known: {', '.join(sorted(self._SCALES))}")
        preset = self._SCALES[self.scale]
        if self.duration is None:
            self.duration = preset["duration"]
        if self.control_interval is None:
            self.control_interval = preset["control_interval"]

    # -- derived sizing -------------------------------------------------------

    @property
    def peak_multiplier(self) -> float:
        return max(m for _f, m in self.day_points)

    def _sized_for(self, rate: float, workload_config: TwitchConfig) -> int:
        """Instances so the *hottest* one (skew headroom) sits at the
        sizing target for ``rate`` physical records/s."""
        cfg = workload_config
        per_record = cfg.filter_pass * cfg.loyalty_service
        return max(2, math.ceil(
            rate * per_record * self.skew_headroom
            / self.peak_sizing_target))

    def peak_parallelism(self, workload_config: TwitchConfig) -> int:
        """Static provisioning for the daily peak at the sizing target."""
        return self._sized_for(self.base_rate * self.peak_multiplier,
                               workload_config)

    def base_parallelism(self, workload_config: TwitchConfig) -> int:
        """Launch parallelism for autoscaled runs: sized for the night."""
        return self._sized_for(self.base_rate * self.day_points[0][1],
                               workload_config)

    def popularity_shifts(self) -> Tuple[Tuple[float, int], ...]:
        """Rotate the Zipf head at the flash crowd and the evening peak."""
        d = self.duration
        return ((0.44 * d, 997), (0.70 * d, 1993))


def _twitch_config(config: DiurnalConfig,
                   parallelism: int) -> TwitchConfig:
    return TwitchConfig(
        rate=config.base_rate,
        seed=config.seed,
        duration=config.duration,
        batch_size=config.batch_size,
        operator_parallelism=parallelism,
        rate_profile=day_profile(config.day_points, config.duration),
        popularity_shifts=config.popularity_shifts(),
    )


def _policy_for(name: str, config: DiurnalConfig, low: int, high: int):
    interval = config.control_interval
    shared = dict(min_parallelism=low, max_parallelism=high,
                  cooldown=4.0 * interval, cooldown_in=8.0 * interval,
                  hold_ticks=2)
    # Control on *mean* busy with the target derated by the skew
    # headroom — exactly the formula static peak is sized with, so the
    # autoscaled fleet converges to the same per-rate capacity and the
    # comparison isolates *when* capacity exists, not how much.  (Mean
    # control also converges where max control would not: one hot
    # key-group keeps busy_max high at any parallelism.)
    target = config.peak_sizing_target / config.skew_headroom
    thresholds = dict(target=target, high=min(0.95, 1.3 * target),
                      low=0.62 * target, metric="mean")
    if name == "reactive":
        return UtilizationThresholdPolicy(**thresholds, **shared)
    if name == "queue-depth":
        return QueueDepthPolicy(high_depth=24.0, low_depth=2.0, **shared)
    if name == "predictive":
        return PredictivePolicy(
            # Lead ≈ one ramp length: the pre-scale then lands (and its
            # migrations finish) before the plateau, in one decision.
            lead_time=max(10.0, 0.12 * config.duration),
            fit_samples=5, **thresholds, **shared)
    raise ValueError(f"unknown diurnal policy {name!r}")


def _windowed_slo(latency_series: List[Tuple[float, float]],
                  config: DiurnalConfig) -> Dict:
    """Score 5-second windows: p99 ≤ SLO, attributed to ramp windows."""
    duration = config.duration
    window = config.slo_window
    ramps = [(f0 * duration, f1 * duration)
             for f0, f1 in config.ramp_windows]
    windows = []
    start = config.measure_start
    while start + window <= duration + 1e-9:
        samples = sorted(v for t, v in latency_series
                         if start <= t < start + window)
        if samples:
            p99 = samples[min(len(samples) - 1,
                              int(0.99 * len(samples)))]
            in_ramp = any(r0 <= start < r1 for r0, r1 in ramps)
            windows.append((start, p99, in_ramp))
        start += window
    violations = [(t, p99, in_ramp) for t, p99, in_ramp in windows
                  if p99 > config.slo]
    ramp_windows = sum(1 for _t, _p, in_ramp in windows if in_ramp)
    ramp_violations = sum(1 for _t, _p, in_ramp in violations if in_ramp)
    return {
        "windows": len(windows),
        "violations": len(violations),
        "attainment": (round(1.0 - len(violations) / len(windows), 6)
                       if windows else 1.0),
        "ramp_windows": ramp_windows,
        "ramp_violations": ramp_violations,
        "violation_times": [round(t, 3) for t, _p, _r in violations],
        "worst_window_p99": (round(max(p for _t, p, _r in windows), 6)
                             if windows else 0.0),
    }


def run_diurnal(policy: str, config: Optional[DiurnalConfig] = None
                ) -> Dict:
    """One compressed day under one provisioning policy; JSON-safe dict."""
    config = config or DiurnalConfig()
    if policy not in DIURNAL_POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; "
            f"known: {', '.join(DIURNAL_POLICIES)}")
    probe = _twitch_config(config, 1)
    peak = config.peak_parallelism(probe)
    base = config.base_parallelism(probe)
    static = policy == "static-peak"
    launch = peak if static else base
    workload = TwitchWorkload(_twitch_config(config, launch))
    job = workload.build()
    job.enable_telemetry()

    auto = None
    if not static:
        drrs = DRRSController(job)
        auto = AutoscaleController(
            job, drrs, workload.scaling_operator,
            # Cap at static peak + margin: an autoscaler allowed to buy a
            # bigger fleet than peak provisioning is not a fair saving.
            _policy_for(policy, config, low=2, high=peak + 2),
            interval=config.control_interval,
            warmup=2.0 * config.control_interval)
        auto.start()

    job.run(until=config.duration)

    slo = _windowed_slo(job.metrics.latency_series(), config)
    overall = job.metrics.latency_stats(config.measure_start,
                                        config.duration)
    result = {
        "policy": policy,
        "scale": config.scale,
        "seed": config.seed,
        "slo": config.slo,
        "duration": config.duration,
        "peak_parallelism": peak,
        "launch_parallelism": launch,
        "p99_latency": round(overall.get("p99", 0.0), 6),
        "mean_latency": round(overall.get("mean", 0.0), 6),
        "source_records": job.metrics.total_source_output(),
        "sink_records": job.metrics.total_sink_input(),
        **slo,
    }
    if static:
        result["instance_seconds"] = round(peak * config.duration, 3)
        result["rescales"] = 0
        result["decisions"] = []
    else:
        summary = auto.summary()
        result["instance_seconds"] = summary["instance_seconds"]
        result["rescales"] = summary["rescales_completed"]
        result["rescales_failed"] = summary["rescales_failed"]
        result["decisions_deferred"] = summary["decisions_deferred"]
        result["final_parallelism"] = summary["final_parallelism"]
        result["decisions"] = summary["decisions"]
    return result


def compare_policies(config: Optional[DiurnalConfig] = None,
                     policies: Tuple[str, ...] = ("static-peak",
                                                  "reactive",
                                                  "predictive")) -> Dict:
    """Run the same seeded day under each policy; evaluate the criteria."""
    config = config or DiurnalConfig()
    runs = {name: run_diurnal(name, config) for name in policies}
    static_cost = runs.get("static-peak", {}).get("instance_seconds")
    savings = {}
    for name, run in runs.items():
        if name == "static-peak" or not static_cost:
            continue
        savings[name] = round(
            1.0 - run["instance_seconds"] / static_cost, 4)
    criteria: Dict[str, object] = {}
    reactive = runs.get("reactive")
    predictive = runs.get("predictive")
    if reactive is not None and static_cost:
        criteria["reactive_holds_slo"] = (
            reactive["attainment"] >= config.attainment_target)
        criteria["reactive_saves_30pct"] = savings.get("reactive",
                                                       0.0) >= 0.30
    if reactive is not None and predictive is not None:
        criteria["predictive_beats_reactive_on_ramps"] = (
            predictive["ramp_violations"] < reactive["ramp_violations"])
    criteria["passed"] = all(v for v in criteria.values())
    return {
        "scenario": "diurnal-day",
        "scale": config.scale,
        "seed": config.seed,
        "slo": config.slo,
        "attainment_target": config.attainment_target,
        "duration": config.duration,
        "policies": runs,
        "instance_seconds_savings": savings,
        "criteria": criteria,
    }
