"""One runner per evaluation figure (Figs. 2, 10-15 of the paper).

Each ``run_figXX`` executes the experiments behind that figure and returns
the same rows/series the paper plots.  The main-comparison runs (Figs.
10-13 share the same nine runs) are memoised per process so the benchmark
suite does not repeat them.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.drrs import DRRSController, make_variant
from ..engine.cluster import swarm_cluster
from ..engine.runtime import StreamJob
from ..scaling.megaphone import MegaphoneController
from ..scaling.meces import MecesController
from ..scaling.otfs import OTFSController
from ..scaling.stop_restart import StopRestartController
from ..scaling.unbound import UnboundController
from .harness import ExperimentConfig, ExperimentResult, run_experiment
from .scenarios import (QUICK, SENSITIVITY_GRID_QUICK, Scenario,
                        make_workload)

__all__ = [
    "controller_factory",
    "run_fig02_unbound_probe",
    "run_main_comparison",
    "run_fig10_latency",
    "run_fig11_throughput",
    "run_fig12_propagation_dependency",
    "run_fig13_suspension",
    "run_fig14_ablation",
    "run_fig15_sensitivity",
]

MAIN_WORKLOADS = ("q7", "q8", "twitch")
MAIN_SYSTEMS = ("drrs", "megaphone", "meces")


#: Every controller the evaluation compares, by the name the CLI's
#: ``--system`` takes.
SYSTEMS: Dict[str, Callable[[StreamJob], object]] = {
    "drrs": DRRSController,
    "megaphone": MegaphoneController,
    "meces": MecesController,
    "otfs": OTFSController,
    "otfs-all-at-once": lambda job: OTFSController(
        job, migration="all_at_once"),
    "unbound": UnboundController,
    "stop-restart": StopRestartController,
    "dr": lambda job: make_variant(job, "dr"),
    "schedule": lambda job: make_variant(job, "schedule"),
    "subscale": lambda job: make_variant(job, "subscale"),
}


def controller_factory(name: str) -> Callable[[StreamJob], object]:
    """The factory :data:`SYSTEMS` registers under ``name``."""
    if name not in SYSTEMS:
        raise ValueError(f"unknown controller: {name!r}")
    return SYSTEMS[name]


def _run_one(kind: str, system: Optional[str],
             scenario: Scenario, new_parallelism: Optional[int] = None,
             telemetry: bool = False,
             **workload_overrides) -> ExperimentResult:
    workload = make_workload(kind, scenario, **workload_overrides)
    factory = controller_factory(system) if system else None
    config = ExperimentConfig(
        workload=workload,
        controller_factory=factory,
        new_parallelism=(new_parallelism if new_parallelism is not None
                         else scenario.new_parallelism),
        warmup=scenario.warmup,
        post_duration=scenario.post_duration,
        stabilize_hold=scenario.stabilize_hold,
        label=f"{kind}/{system or 'no-scale'}",
        telemetry=telemetry)
    return run_experiment(config)


# ---------------------------------------------------------------------------
# Fig. 2 — Unbound vs OTFS vs No Scale (§II-B)
# ---------------------------------------------------------------------------

def run_fig02_unbound_probe(scenario: Scenario = QUICK
                            ) -> Dict[str, object]:
    """Latency over time for Unbound, generalized OTFS (fluid) and No Scale
    on the Twitch workload, plus the avg/peak ratios the paper reports
    (OTFS 3.47×/4.8× vs Unbound 1.25×/1.14× relative to No Scale).

    Per §II-B the probe runs at a *fixed input rate* the pre-scale
    deployment handles comfortably, so the scaling operation is pure
    disruption (the added capacity brings no benefit) and ratios are taken
    over the disturbance window after the scaling request.
    """
    overrides = {"loyalty_service": 1.15e-3}  # ~52 % mean pre-scale utilisation
    results = {
        "no-scale": _run_one("twitch", None, scenario, **overrides),
        "otfs": _run_one("twitch", "otfs", scenario, **overrides),
        "unbound": _run_one("twitch", "unbound", scenario, **overrides),
    }
    base = results["no-scale"]
    ratios = {}
    for name in ("otfs", "unbound"):
        result = results[name]
        # Ratios are taken over each system's own scaling disturbance
        # window (its scaling period, floored at 10 s); after that window
        # the extra capacity would mask the disruption being measured.
        window = max(result.scaling_period or 0.0, 10.0)
        window = min(window, result.end_at - result.scale_at)
        during = result.job.metrics.latency_stats(
            start=result.scale_at, end=result.scale_at + window)
        base_stats = base.job.metrics.latency_stats(
            start=base.scale_at, end=base.scale_at + window)
        ratios[name] = {
            "avg_ratio": (during["mean"] / base_stats["mean"]
                          if base_stats["mean"] else math.inf),
            "peak_ratio": (during["peak"] / base_stats["peak"]
                           if base_stats["peak"] else math.inf),
        }
    return {"results": results, "ratios": ratios}


# ---------------------------------------------------------------------------
# Figs. 10-13 — main comparison (shared runs, memoised)
# ---------------------------------------------------------------------------

_MAIN_CACHE: Dict[Tuple, Dict[str, Dict[str, ExperimentResult]]] = {}


def run_main_comparison(scenario: Scenario = QUICK,
                        workloads: Sequence[str] = MAIN_WORKLOADS,
                        systems: Sequence[str] = MAIN_SYSTEMS
                        ) -> Dict[str, Dict[str, ExperimentResult]]:
    """The nine §V-B runs: every workload × every system."""
    key = (scenario.name, tuple(workloads), tuple(systems))
    if key in _MAIN_CACHE:
        return _MAIN_CACHE[key]
    results: Dict[str, Dict[str, ExperimentResult]] = {}
    for kind in workloads:
        results[kind] = {}
        for system in systems:
            results[kind][system] = _run_one(kind, system, scenario)
    _MAIN_CACHE[key] = results
    return results


def _reduction(drrs_value: float, other_value: float) -> float:
    """Percent reduction of DRRS relative to a baseline value."""
    if other_value <= 0:
        return 0.0
    return 100.0 * (other_value - drrs_value) / other_value


def run_fig10_latency(scenario: Scenario = QUICK,
                      workloads: Sequence[str] = MAIN_WORKLOADS,
                      systems: Sequence[str] = MAIN_SYSTEMS
                      ) -> Dict[str, object]:
    """End-to-end latency during scaling + the headline reductions."""
    results = run_main_comparison(scenario, workloads, systems)
    rows = []
    reductions = {}
    for kind in workloads:
        for system in systems:
            r = results[kind][system]
            rows.append({
                "workload": kind,
                "system": system,
                "peak_latency": r.peak_latency,
                "mean_latency": r.mean_latency,
                "pre_mean_latency": r.pre_latency.get("mean", 0.0),
                "scaling_period": r.scaling_period,
            })
        if "drrs" in systems:
            drrs = results[kind]["drrs"]
            reductions[kind] = {}
            for other in systems:
                if other == "drrs":
                    continue
                base = results[kind][other]
                reductions[kind][other] = {
                    "peak_reduction_pct": _reduction(
                        drrs.peak_latency, base.peak_latency),
                    "mean_reduction_pct": _reduction(
                        drrs.mean_latency, base.mean_latency),
                    "period_reduction_pct": _reduction(
                        drrs.scaling_period or 0.0,
                        base.scaling_period or 0.0),
                }
    return {"results": results, "rows": rows, "reductions": reductions}


def run_fig11_throughput(scenario: Scenario = QUICK,
                         workloads: Sequence[str] = MAIN_WORKLOADS,
                         systems: Sequence[str] = MAIN_SYSTEMS
                         ) -> Dict[str, object]:
    """Throughput (records/s) over time for the same nine runs."""
    results = run_main_comparison(scenario, workloads, systems)
    series = {}
    recovery = []
    for kind in workloads:
        series[kind] = {}
        for system in systems:
            r = results[kind][system]
            series[kind][system] = r.throughput_series
            post = [v for t, v in r.throughput_series if t >= r.scale_at]
            pre = [v for t, v in r.throughput_series
                   if r.scale_at - 10 <= t < r.scale_at]
            pre_mean = sum(pre) / len(pre) if pre else 0.0
            recovery.append({
                "workload": kind,
                "system": system,
                "pre_throughput": pre_mean,
                "min_during": min(post) if post else 0.0,
                "max_during": max(post) if post else 0.0,
            })
    return {"results": results, "series": series, "recovery": recovery}


def run_fig12_propagation_dependency(
        scenario: Scenario = QUICK,
        workloads: Sequence[str] = MAIN_WORKLOADS,
        systems: Sequence[str] = MAIN_SYSTEMS) -> Dict[str, object]:
    """Cumulative propagation delay and average dependency overhead."""
    results = run_main_comparison(scenario, workloads, systems)
    rows = []
    for kind in workloads:
        for system in systems:
            m = results[kind][system].scaling_metrics
            rows.append({
                "workload": kind,
                "system": system,
                "cumulative_propagation_delay":
                    m.cumulative_propagation_delay(),
                "avg_dependency_overhead":
                    m.average_dependency_overhead(),
            })
    return {"results": results, "rows": rows}


def run_fig13_suspension(scenario: Scenario = QUICK,
                         workloads: Sequence[str] = MAIN_WORKLOADS,
                         systems: Sequence[str] = MAIN_SYSTEMS
                         ) -> Dict[str, object]:
    """Cumulative suspension time (total + time series)."""
    results = run_main_comparison(scenario, workloads, systems)
    rows = []
    series = {}
    for kind in workloads:
        series[kind] = {}
        for system in systems:
            m = results[kind][system].scaling_metrics
            rows.append({
                "workload": kind,
                "system": system,
                "total_suspension": m.total_suspension(),
                "remigrations": m.remigrations,
            })
            series[kind][system] = m.suspension_series()
    return {"results": results, "rows": rows, "series": series}


# ---------------------------------------------------------------------------
# Fig. 14 — design-rationale isolation test (§V-C)
# ---------------------------------------------------------------------------

def run_fig14_ablation(scenario: Scenario = QUICK,
                       variants: Sequence[str] = ("drrs", "dr", "schedule",
                                                  "subscale")
                       ) -> Dict[str, object]:
    """Twitch workload, full DRRS vs each mechanism in isolation."""
    results = {}
    for variant in variants:
        results[variant] = _run_one("twitch", variant, scenario)
    rows = []
    full = results.get("drrs")
    for variant in variants:
        r = results[variant]
        row = {
            "variant": variant,
            "peak_latency": r.peak_latency,
            "mean_latency": r.mean_latency,
            "scaling_period": r.scaling_period,
        }
        if full is not None and variant != "drrs":
            row["peak_increase_pct"] = (
                100.0 * (r.peak_latency - full.peak_latency)
                / full.peak_latency if full.peak_latency else 0.0)
            row["mean_increase_pct"] = (
                100.0 * (r.mean_latency - full.mean_latency)
                / full.mean_latency if full.mean_latency else 0.0)
        rows.append(row)
    return {"results": results, "rows": rows}


# ---------------------------------------------------------------------------
# Fig. 15 — sensitivity analysis on the Swarm cluster (§V-D)
# ---------------------------------------------------------------------------

def run_fig15_sensitivity(scenario: Scenario = QUICK,
                          grid: Optional[Dict[str, List[float]]] = None,
                          systems: Sequence[str] = MAIN_SYSTEMS
                          ) -> Dict[str, object]:
    """Throughput deviation over ⟨input rate, state size, skewness⟩.

    Deviation (%) = shortfall of measured source throughput vs. the offered
    rate over the measurement window, the paper's Fig. 15 color value.
    """
    grid = grid or SENSITIVITY_GRID_QUICK
    rows = []
    for skew in grid["skews"]:
        for rate in grid["rates"]:
            for state_bytes in grid["state_bytes"]:
                for system in systems:
                    rows.append(_sensitivity_cell(
                        scenario, system, rate, state_bytes, skew))
    return {"rows": rows, "grid": grid}


def _sensitivity_cell(scenario: Scenario, system: str, rate: float,
                      state_bytes: float, skew: float) -> Dict[str, float]:
    workload = make_workload(
        "custom", scenario,
        rate=rate, skew=skew,
        target_state_bytes=state_bytes * scenario.state_scale)
    config = ExperimentConfig(
        workload=workload,
        controller_factory=controller_factory(system),
        new_parallelism=scenario.sens_new_parallelism,
        warmup=max(10.0, scenario.warmup / 3),
        post_duration=scenario.sensitivity_window,
        stabilize_hold=scenario.stabilize_hold,
        cluster=swarm_cluster(),
        label=f"sens/{system}")
    result = run_experiment(config)
    window = result.end_at - result.scale_at
    expected = rate * window
    actual = result.job.metrics.total_source_output(
        start=result.scale_at, end=result.end_at)
    deviation = max(0.0, 100.0 * (expected - actual) / expected)
    return {
        "system": system,
        "rate": rate,
        "state_bytes": state_bytes,
        "skew": skew,
        "throughput_deviation_pct": deviation,
        "measured_rate": actual / window if window else 0.0,
    }
