"""Experiment harness: warm-up → scale → stabilization protocol (§V-B).

Every evaluation figure runs the same protocol:

1. a warm-up phase establishes steady state (300 s in the paper),
2. a scaling operation expands the bottleneck operator,
3. a post-scaling phase runs until latency re-stabilizes.

The **scaling period** follows the paper's definition: from the initial
scaling operation until latency stays within 110 % of the pre-scaling level
for 100 consecutive seconds (both thresholds configurable so scaled-down
runs keep the same semantics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.cluster import ClusterModel
from ..engine.runtime import JobConfig, StreamJob
from ..scaling.base import ScalingController, ScalingMetrics
from ..workloads.base import Workload

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment",
           "detect_scaling_period"]

ControllerFactory = Callable[[StreamJob], ScalingController]


@dataclass
class ExperimentConfig:
    """One (workload × controller) run."""

    workload: Workload
    controller_factory: Optional[ControllerFactory] = None
    new_parallelism: int = 12
    warmup: float = 30.0
    post_duration: float = 90.0
    #: Window for throughput bucketing (seconds).
    measure_window: float = 1.0
    #: Pre-scale latency baseline window (seconds before the scale).
    baseline_window: float = 10.0
    #: Stabilization criterion: latency within `threshold`×baseline ...
    stabilize_threshold: float = 1.10
    #: ... held for this many seconds (100 s in the paper).
    stabilize_hold: float = 10.0
    cluster: Optional[ClusterModel] = None
    job_config: Optional[JobConfig] = None
    #: Record-plane knobs without constructing a full JobConfig: when
    #: ``job_config`` is None these build one ("batched"/"single", and the
    #: batch-size cap).  Ignored when an explicit job_config is given.
    record_plane: Optional[str] = None
    max_batch_size: Optional[int] = None
    #: Kernel scheduler override ("heap"/"calendar"); None = engine default.
    scheduler: Optional[str] = None
    #: Keyed-state backend override ("dict"/"changelog"); None = engine
    #: default.  Like the other knobs, ignored when an explicit
    #: ``job_config`` is given.
    state_backend: Optional[str] = None
    label: str = ""
    #: Opt-in structured tracing: when True the job's telemetry subsystem
    #: is enabled before warm-up and exposed on the result.  Off by default
    #: so figure runs stay bit-identical to the un-instrumented engine.
    telemetry: bool = False
    #: Worker processes for the run.  None = the engine default
    #: (``REPRO_SHARDS`` or 1).  Sharding only applies to plain runs —
    #: any run with a scaling controller, telemetry, or a custom cluster
    #: falls back to single-process so rescale/chaos semantics are
    #: untouched (same pattern as the batched plane's per-record
    #: fallback).  The fallback is silent by design: the result is
    #: identical either way, only wall-clock differs.
    shards: Optional[int] = None
    #: Cut-edge flow-control window for sharded runs (becomes the
    #: engine-wide ``inbox_capacity`` of the built job so sharded and
    #: single-process runs stay same-config).  None = the engine default
    #: (``REPRO_SHARD_INBOX`` or 512); only consulted when the run
    #: actually shards.
    shard_inbox_capacity: Optional[int] = None
    #: Cut-edge data plane for sharded runs ("auto"/"shm"/"pipe").
    #: None = the engine default (``REPRO_SHARD_TRANSPORT`` or "auto",
    #: which picks shared memory).
    shard_transport: Optional[str] = None

    def __post_init__(self):
        if (self.record_plane is not None
                and self.record_plane not in JobConfig.RECORD_PLANES):
            raise ValueError(
                f"unknown record_plane: {self.record_plane!r} "
                f"(expected one of: {', '.join(JobConfig.RECORD_PLANES)} "
                "— or None for the engine default)")
        if self.max_batch_size is not None and (
                not isinstance(self.max_batch_size, int)
                or isinstance(self.max_batch_size, bool)
                or not 1 <= self.max_batch_size
                <= JobConfig.MAX_BATCH_SIZE_LIMIT):
            raise ValueError(
                "max_batch_size must be an integer in "
                f"[1, {JobConfig.MAX_BATCH_SIZE_LIMIT}] or None, "
                f"got {self.max_batch_size!r}")
        if (self.scheduler is not None
                and self.scheduler not in JobConfig.SCHEDULERS):
            raise ValueError(
                f"unknown scheduler: {self.scheduler!r} "
                f"(expected one of: {', '.join(JobConfig.SCHEDULERS)} "
                "— or None for the engine default)")
        if (self.state_backend is not None
                and self.state_backend not in JobConfig.STATE_BACKENDS):
            raise ValueError(
                f"unknown state_backend: {self.state_backend!r} "
                f"(expected one of: "
                f"{', '.join(JobConfig.STATE_BACKENDS)} "
                "— or None for the engine default)")
        if self.shards is not None and (
                not isinstance(self.shards, int)
                or isinstance(self.shards, bool)
                or not 1 <= self.shards <= JobConfig.MAX_SHARDS):
            raise ValueError(
                f"shards must be an integer in [1, {JobConfig.MAX_SHARDS}] "
                f"or None, got {self.shards!r}")
        if self.shard_inbox_capacity is not None and (
                not isinstance(self.shard_inbox_capacity, int)
                or isinstance(self.shard_inbox_capacity, bool)
                or not 1 <= self.shard_inbox_capacity
                <= JobConfig.MAX_SHARD_INBOX):
            raise ValueError(
                "shard_inbox_capacity must be an integer in "
                f"[1, {JobConfig.MAX_SHARD_INBOX}] or None, "
                f"got {self.shard_inbox_capacity!r}")
        if (self.shard_transport is not None
                and self.shard_transport not in JobConfig.SHARD_TRANSPORTS):
            raise ValueError(
                f"unknown shard_transport: {self.shard_transport!r} "
                f"(expected one of: "
                f"{', '.join(JobConfig.SHARD_TRANSPORTS)} "
                "— or None for the engine default)")


@dataclass
class ExperimentResult:
    """Everything a figure needs from one run."""

    label: str
    controller_name: str
    scale_at: float
    end_at: float
    latency_series: List[Tuple[float, float]]
    throughput_series: List[Tuple[float, float]]
    pre_latency: Dict[str, float]
    during_latency: Dict[str, float]
    scaling_metrics: Optional[ScalingMetrics]
    scaling_period: Optional[float]
    source_records: int
    sink_records: int
    job: Optional[StreamJob] = field(default=None, repr=False)
    #: The job's Telemetry bundle when ExperimentConfig.telemetry was set.
    telemetry: Optional[object] = field(default=None, repr=False)

    @property
    def peak_latency(self) -> float:
        return self.during_latency.get("peak", 0.0)

    @property
    def mean_latency(self) -> float:
        return self.during_latency.get("mean", 0.0)

    def summary(self) -> Dict[str, float]:
        m = self.scaling_metrics
        return {
            "controller": self.controller_name,
            "peak_latency": self.peak_latency,
            "mean_latency": self.mean_latency,
            "pre_mean_latency": self.pre_latency.get("mean", 0.0),
            "scaling_period": self.scaling_period,
            "migration_duration": m.duration if m else None,
            "cumulative_propagation_delay":
                m.cumulative_propagation_delay() if m else None,
            "avg_dependency_overhead":
                m.average_dependency_overhead() if m else None,
            "total_suspension": m.total_suspension() if m else None,
            "remigrations": m.remigrations if m else 0,
            "records_rerouted": m.records_rerouted if m else 0,
        }


def detect_scaling_period(latency_series: List[Tuple[float, float]],
                          scale_at: float,
                          baseline: float,
                          threshold: float = 1.10,
                          hold: float = 10.0,
                          end_at: Optional[float] = None
                          ) -> Optional[float]:
    """Seconds from ``scale_at`` until latency re-stabilizes (§V-B).

    Stabilization = the earliest time ``t`` after the scale such that every
    latency sample in ``[t, t + hold]`` is at most ``threshold * baseline``.
    Returns None when the series never stabilizes before ``end_at``
    (censored — reported as the full post-scaling window by callers).
    """
    if baseline <= 0:
        baseline = min((v for t, v in latency_series if t > scale_at),
                       default=0.0)
        if baseline <= 0:
            return 0.0
    limit = threshold * baseline
    after = [(t, v) for t, v in latency_series if t >= scale_at]
    if not after:
        return None
    horizon = end_at if end_at is not None else after[-1][0]
    # Bucket-smooth (2 s means) so single-sample noise, present in any
    # marker-based measurement, does not reset the hold window.
    bucket = 2.0
    buckets: Dict[int, List[float]] = {}
    for t, v in after:
        buckets.setdefault(int((t - scale_at) // bucket), []).append(v)
    smoothed = [(scale_at + (i + 0.5) * bucket, sum(vs) / len(vs))
                for i, vs in sorted(buckets.items())]
    candidate: Optional[float] = None
    for t, v in smoothed:
        if v > limit:
            candidate = None
            continue
        if candidate is None:
            candidate = t
        if t - candidate >= hold:
            return max(0.0, candidate - scale_at)
    if candidate is not None and horizon - candidate >= hold:
        return max(0.0, candidate - scale_at)
    return None


def _run_experiment_sharded(config: ExperimentConfig, job_config,
                            shards: int) -> ExperimentResult:
    """Plain (no-controller) run on the sharded kernel.

    The merged per-shard view is loaded into a real
    :class:`~repro.engine.metrics.MetricsCollector` so every downstream
    statistic (latency stats, throughput buckets) uses the exact same
    code path as a single-process run.  Results are identical by the
    shard-vs-single equivalence contract; only wall-clock differs.
    """
    import copy
    import dataclasses as _dc

    from ..engine.metrics import MetricsCollector
    from ..simulation.sharded import run_sharded

    # Explicit shard knobs override the job config for *this* run; the
    # flow-control window applies engine-wide (the sharded run and the
    # single reference inside run_sharded stay same-config).
    if (config.shard_inbox_capacity is not None
            or config.shard_transport is not None):
        overrides = {}
        if config.shard_inbox_capacity is not None:
            overrides["shard_inbox_capacity"] = config.shard_inbox_capacity
            overrides["inbox_capacity"] = config.shard_inbox_capacity
        if config.shard_transport is not None:
            overrides["shard_transport"] = config.shard_transport
        base = job_config if job_config is not None else JobConfig()
        job_config = _dc.replace(base, **overrides)

    workload = config.workload
    end_at = config.warmup + config.post_duration
    result = run_sharded(
        # Each call (probe + one per worker) builds from a pristine copy
        # so a Workload whose build mutates internal state stays
        # deterministic across processes.
        lambda: copy.deepcopy(workload),
        until=end_at, shards=shards, job_config=job_config)
    if not result.backpressure_safe:
        # The credit ledger could not certify the run even after
        # replanning — results may differ from single-process, so the
        # figure falls back to the reference kernel.
        import dataclasses as _dc
        return run_experiment(_dc.replace(config, shards=1))

    metrics = MetricsCollector.from_view(result.semantic_view())

    scale_at = config.warmup
    latency = metrics.latency_series()
    throughput = metrics.throughput_series(
        window=config.measure_window, start=0.0, end=end_at)
    pre = metrics.latency_stats(
        start=scale_at - config.baseline_window, end=scale_at)
    during = metrics.latency_stats(start=scale_at, end=end_at)
    return ExperimentResult(
        label=config.label or workload.name,
        controller_name="no-scale",
        scale_at=scale_at,
        end_at=end_at,
        latency_series=latency,
        throughput_series=throughput,
        pre_latency=pre,
        during_latency=during,
        scaling_metrics=None,
        scaling_period=None,
        source_records=metrics.total_source_output(),
        sink_records=metrics.total_sink_input(),
        job=None,
        telemetry=None,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the three-phase protocol and collect the figure inputs."""
    workload = config.workload
    job_config = config.job_config
    if job_config is None and (config.record_plane is not None
                               or config.max_batch_size is not None
                               or config.scheduler is not None
                               or config.state_backend is not None):
        overrides = {}
        if config.record_plane is not None:
            overrides["record_plane"] = config.record_plane
        if config.max_batch_size is not None:
            overrides["max_batch_size"] = config.max_batch_size
        if config.scheduler is not None:
            overrides["scheduler"] = config.scheduler
        if config.state_backend is not None:
            overrides["state_backend"] = config.state_backend
        job_config = JobConfig(**overrides)

    effective_shards = config.shards
    if effective_shards is None:
        effective_shards = (job_config.shards if job_config is not None
                            else JobConfig().shards)
    if (effective_shards > 1 and config.controller_factory is None
            and not config.telemetry and config.cluster is None):
        from ..simulation.sharded import supports_sharding
        if supports_sharding(job_config):
            return _run_experiment_sharded(config, job_config,
                                           effective_shards)

    job = workload.build(cluster=config.cluster, job_config=job_config)
    telemetry = job.enable_telemetry() if config.telemetry else None
    job.run(until=config.warmup)

    controller = None
    if config.controller_factory is not None:
        controller = config.controller_factory(job)
        controller.request_rescale(workload.scaling_operator,
                                   config.new_parallelism)
    scale_at = config.warmup
    end_at = config.warmup + config.post_duration
    job.run(until=end_at)

    latency = job.metrics.latency_series()
    throughput = job.metrics.throughput_series(
        window=config.measure_window, start=0.0, end=end_at)
    pre = job.metrics.latency_stats(
        start=scale_at - config.baseline_window, end=scale_at)
    during = job.metrics.latency_stats(start=scale_at, end=end_at)
    period = None
    if controller is not None:
        period = detect_scaling_period(
            latency, scale_at, pre.get("mean", 0.0),
            threshold=config.stabilize_threshold,
            hold=config.stabilize_hold,
            end_at=end_at)
        if period is None:
            period = config.post_duration  # censored: never re-stabilized
    return ExperimentResult(
        label=config.label or workload.name,
        controller_name=controller.name if controller else "no-scale",
        scale_at=scale_at,
        end_at=end_at,
        latency_series=latency,
        throughput_series=throughput,
        pre_latency=pre,
        during_latency=during,
        scaling_metrics=controller.metrics if controller else None,
        scaling_period=period,
        source_records=job.metrics.total_source_output(),
        sink_records=job.metrics.total_sink_input(),
        job=job,
        telemetry=telemetry,
    )
