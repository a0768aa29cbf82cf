"""The six ledger workloads, driven through the program's public calls.

Imported by the worker only (it imports ``repro``).  Each workload has
three steps: :meth:`prepare` (set-up, not timed), the timed region --
:meth:`run_paced` (cut into slices with a calibration chunk between them
and labelled by harness-level phase) or :meth:`run_whole` (in one piece,
as a user makes it; what the profiler sees) -- and :meth:`outcome`
(simulated results, public counters, reference-free checks).

All protocol times are multiplied by ``scale`` so the smoke mode and the
self-tests can run the same code on a short horizon; ``scale == 1`` is
the benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
import warnings
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro import DRRSController, JobConfig
from repro.engine import (CheckpointCoordinator, MetricsCollector,
                          RecoveryManager, instance_rows, percentile)
from repro.engine.columnar import HAVE_NUMPY
from repro.experiments import (QUICK, ExperimentConfig,
                               detect_scaling_period, make_workload,
                               run_experiment)
from repro.faults import CrashInstance, FaultInjector, check_all
from repro.perf.benches import SHARD_WEIGHTS
from repro.simulation.sharded import (ShardedRunResult, collect_run_view,
                                      run_sharded)

#: Source output below this share of what the generators offer is a stall:
#: a stalled run simulates idle seconds cheaply, so it must fail, not win.
STALL_FLOOR = 0.97


class Pacer:
    """Advances a job in slices, a calibration chunk between every two,
    and keeps the wall-clock span of everything it ran.

    Span kinds: ``calibration`` (one kernel chunk), ``run`` (part of the
    timed region) and ``part`` (a named part of set-up).
    """

    #: Slices a timed region is cut into.
    SLICES = 16
    #: No new chunk while the last one is fresher than this.
    MIN_GAP_S = 0.05

    def __init__(self, calibrator):
        self.calibrator = calibrator
        self.spans: List[Dict] = []
        self._last_chunk_end = float("-inf")

    def _record(self, name: str, kind: str, start: float) -> None:
        self.spans.append({"name": name, "kind": kind, "start": start,
                           "end": time.perf_counter()})

    def calibrate(self) -> None:
        """One kernel chunk, unless the last one is still fresh."""
        start = time.perf_counter()
        if start - self._last_chunk_end < self.MIN_GAP_S:
            return
        self.calibrator.chunk()
        self._record("calibration", "calibration", start)
        self._last_chunk_end = self.spans[-1]["end"]

    @contextmanager
    def span(self, name: str, kind: str = "run"):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record(name, kind, start)

    def advance(self, job, phase: str, until: float, step: float,
                stop=None) -> float:
        """Run ``job`` to ``until`` in slices of ``step`` simulated
        seconds (or until ``stop()`` holds); returns where it stopped."""
        now = job.sim.now
        while now < until and not (stop is not None and stop()):
            self.calibrate()
            now = min(now + step, until)
            with self.span(phase):
                job.run(until=now)
        return now

    def wall(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)


def stall_check(source_records: int, expected: float) -> Dict:
    """Reference-free check that the sources kept admitting records."""
    return {"name": "sources_not_stalled",
            "ok": source_records >= STALL_FLOOR * expected,
            "detail": f"{source_records} source records, "
                      f"{expected:.0f} offered"}


def _check(name: str, ok: bool, detail: str = "") -> Dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _offered(config, until: float) -> float:
    """Physical records the generators offer in ``[0, until]``."""
    total = config.rate * until
    wave = getattr(config, "rate_wave", 0.0)
    if wave:
        omega = 2 * math.pi / config.rate_wave_period
        total += config.rate * wave * (1 - math.cos(omega * until)) / omega
    return total


def _digest(metrics: MetricsCollector, until: float) -> str:
    """Digest of what the run produced: sink events and latency samples."""
    parts = (sorted(metrics.latency_samples),
             metrics.sink_rate_series(window=1.0, start=0.0, end=until),
             metrics.total_sink_input())
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _window_metrics(metrics: MetricsCollector, start: float,
                    end: float) -> Dict[str, float]:
    """Simulated results over the measurement window ``[start, end)``."""
    values = [v for t, v in metrics.latency_samples if start <= t < end]
    rates = [r for _t, r in metrics.throughput_series(
        window=1.0, start=start, end=end)]
    return {
        "sim_peak_latency_s": max(values, default=0.0),
        "sim_mean_latency_s": sum(values) / len(values) if values else 0.0,
        "sim_p95_latency_s": percentile(values, 95.0),
        "sim_min_throughput_rps": min(rates, default=0.0),
        "window_latency_samples": len(values),
    }


def _job_counters(job) -> Dict[str, float]:
    rows = instance_rows(job)
    fired = 0
    for instance in job.all_instances():
        fired += getattr(instance.logic, "windows_fired", 0)
        fired += getattr(instance.logic, "joins_emitted", 0)
    return {
        "simulation.kernel.events": job.sim.events_processed,
        "engine.operators.busy_max": max(r["busy_fraction"] for r in rows),
        "engine.operators.suspended_sim_s": sum(r["suspended_s"]
                                                for r in rows),
        "engine.windows.fired": fired,
        "engine.state.total_mb": sum(r["state_mb"] for r in rows),
        "workloads.admission_backlog_end": sum(
            r.get("admission_backlog", 0) for r in rows),
    }


class _Workload:
    """Shared bookkeeping; subclasses fill in the three steps."""

    kind = ""
    #: Simulated seconds before the measurement window opens.
    warmup = QUICK.warmup
    #: Switch the program's own tracing on (rescale workload only).
    telemetry = False

    def __init__(self, horizon: float):
        self.horizon = horizon
        self.job = None
        #: Engine config of a run that has no job in this process.
        self.job_config: Optional[JobConfig] = None
        self.metrics: Optional[MetricsCollector] = None
        self.checks: List[Dict] = []
        self.counters: Dict[str, float] = {}
        self.sim: Dict[str, float] = {}
        #: Simulated seconds each paced phase covered.
        self.phase_sim: Dict[str, float] = {}
        self.shard_transport = None
        self.workers_used = 1

    def prepare(self, seed: int, scale: float, pacer: Pacer) -> None:
        self.seed = seed
        self.scale = scale
        self.until = self.horizon * scale
        self.step = self.until / Pacer.SLICES
        self.window_start = self.warmup * scale
        self.workload = make_workload(self.kind, QUICK, seed=seed)

    def _build(self, pacer: Pacer, kind: str = "part",
               job_config: Optional[JobConfig] = None) -> None:
        with pacer.span("build", kind):
            self.job = self.workload.build(job_config=job_config)
        if self.telemetry:
            self.job.enable_telemetry()
        self.metrics = self.job.metrics

    def run_whole(self, pacer: Pacer) -> None:
        """The timed region in one piece."""
        with pacer.span("post"):
            self.job.run(until=self.until)

    def run_paced(self, pacer: Pacer) -> None:
        """The timed region in calibrated slices, labelled by phase."""
        raise NotImplementedError

    def finish(self) -> None:
        """Workload-specific results and checks (after the timed region)."""

    def outcome(self) -> Dict:
        self.finish()
        metrics, until = self.metrics, self.until
        source = metrics.total_source_output()
        sink = metrics.total_sink_input()
        self.checks.insert(0, stall_check(
            source, _offered(self.workload.config, until)))
        self.checks.insert(1, _check("sink_received_records", sink > 0,
                                     f"{sink} sink records"))
        sim = _window_metrics(metrics, self.window_start, until)
        sim.update(self.sim)
        counters = dict(self.counters)
        if self.job is not None:
            counters.update(_job_counters(self.job))
        events = counters.get("simulation.kernel.events", 0)
        counters["simulation.kernel.events_per_record"] = (
            events / source if source else 0.0)
        counters["engine.metrics.latency_samples"] = len(
            metrics.latency_samples)
        return {
            "source_records": source,
            "sink_records": sink,
            "sim": sim,
            "counters": counters,
            "checks": self.checks,
            "digest": _digest(metrics, until),
            "phase_sim_s": self.phase_sim,
            "config": self._effective_config(),
        }

    def _effective_config(self) -> Dict:
        config = self.job.config if self.job is not None else self.job_config
        return {
            "record_plane": config.record_plane,
            "scheduler": config.scheduler,
            "state_backend": config.state_backend,
            "columnar_available": HAVE_NUMPY,
            "shard_transport": self.shard_transport,
            "workers_used": self.workers_used,
            "sim_seconds": self.until,
        }


class Steady(_Workload):
    """A plain run to the horizon: no scaling, no checkpoints."""

    def __init__(self, kind: str, horizon: float):
        super().__init__(horizon)
        self.kind = kind

    def prepare(self, seed, scale, pacer):
        super().prepare(seed, scale, pacer)
        self._build(pacer)

    def run_paced(self, pacer):
        pacer.advance(self.job, "warmup", self.window_start, self.step)
        pacer.advance(self.job, "post", self.until, self.step)
        self.phase_sim["warmup"] = self.window_start


class RescaleDRRS(_Workload):
    """The paper's headline protocol: warm-up, DRRS 8 -> 12, post."""

    kind = "q7"

    def prepare(self, seed, scale, pacer):
        super().prepare(seed, scale, pacer)
        self.experiment = ExperimentConfig(
            workload=self.workload, controller_factory=DRRSController,
            new_parallelism=QUICK.new_parallelism,
            warmup=self.window_start,
            post_duration=self.until - self.window_start,
            stabilize_hold=QUICK.stabilize_hold * scale,
            telemetry=self.telemetry)

    def run_whole(self, pacer):
        with pacer.span("post"):
            result = run_experiment(self.experiment)
        self.job = result.job
        self.metrics = self.job.metrics
        self.controller_metrics = result.scaling_metrics
        self.period = result.scaling_period

    def run_paced(self, pacer):
        # The protocol of run_experiment, by the same public calls, cut
        # where the harness can see a phase boundary: the done-event.
        self._build(pacer, kind="run")
        pacer.advance(self.job, "warmup", self.window_start, self.step)
        controller = DRRSController(self.job)
        done = controller.request_rescale(self.workload.scaling_operator,
                                          QUICK.new_parallelism)
        migrated = pacer.advance(self.job, "migration", self.until,
                                 0.5 * self.scale,
                                 stop=lambda: done.triggered)
        pacer.advance(self.job, "post", self.until, self.step)
        self.phase_sim = {"warmup": self.window_start,
                          "migration": migrated - self.window_start}
        self.controller_metrics = controller.metrics
        pre = self.metrics.latency_stats(
            start=self.window_start - self.experiment.baseline_window,
            end=self.window_start)
        period = detect_scaling_period(
            self.metrics.latency_series(), self.window_start,
            pre.get("mean", 0.0), hold=self.experiment.stabilize_hold,
            end_at=self.until)
        self.period = (period if period is not None
                       else self.until - self.window_start)

    def finish(self):
        m = self.controller_metrics
        operator = self.workload.scaling_operator
        self.sim["sim_scaling_period_s"] = self.period
        self.counters.update({
            "core.migration_sim_s": m.duration or 0.0,
            "core.propagation_delay_sim_s":
                m.cumulative_propagation_delay(),
            "core.dependency_overhead_sim_s":
                m.average_dependency_overhead(),
            "core.suspension_sim_s": m.total_suspension(),
            "core.records_rerouted": m.records_rerouted,
            "core.remigrations": m.remigrations,
        })
        instances = len(self.job.instances(operator))
        self.checks.append(_check(
            "rescale_done",
            m.finished_at is not None
            and instances == QUICK.new_parallelism,
            f"finished_at={m.finished_at}, {instances} instances"))
        violations = check_all(self.job, operator)
        self.checks.append(_check("rescale_invariants_clean",
                                  not violations, "; ".join(violations[:3])))


class CheckpointCrash(_Workload):
    """Periodic checkpoints, one crash, whole-job rollback recovery."""

    kind = "twitch"
    CHECKPOINT_INTERVAL = 5.0
    CRASH_AT = 62.0

    def prepare(self, seed, scale, pacer):
        super().prepare(seed, scale, pacer)
        self.crash_at = self.CRASH_AT * scale
        # The measurement window opens at the crash, as the rescale
        # window opens at the scale.
        self.window_start = self.crash_at
        self._build(pacer)
        self.coordinator = CheckpointCoordinator(
            self.job, interval=self.CHECKPOINT_INTERVAL * scale)
        self.coordinator.start()
        self.recovery = RecoveryManager(self.job).install()
        self.injector = FaultInjector(self.job, recovery=self.recovery,
                                      seed=seed)
        self.injector.add(CrashInstance(self.workload.scaling_operator, 0,
                                        at=self.crash_at)).arm()
        self.hold = QUICK.stabilize_hold * scale
        self.baseline_window = 10.0 * scale

    def run_paced(self, pacer):
        warmup = self.warmup * self.scale
        pacer.advance(self.job, "warmup", warmup, self.step)
        pacer.advance(self.job, "post", self.crash_at, self.step)
        pacer.advance(self.job, "recovery", self.until, self.step)
        self.phase_sim["warmup"] = warmup

    def finish(self):
        pre = self.metrics.latency_stats(
            start=self.crash_at - self.baseline_window, end=self.crash_at)
        recovered = detect_scaling_period(
            self.metrics.latency_series(), self.crash_at,
            pre.get("mean", 0.0), hold=self.hold, end_at=self.until)
        # Censored like the scaling period: never back within 110 % of
        # the pre-crash mean counts as the whole window.
        self.sim["sim_recovery_s"] = (recovered if recovered is not None
                                      else self.until - self.crash_at)
        recoveries = self.recovery.recoveries
        completed = self.coordinator.completed
        self.counters.update({
            "engine.checkpoint.completed": len(completed),
            "engine.checkpoint.recoveries": len(recoveries),
        })
        self.checks.append(_check(
            "recovery_happened",
            len(recoveries) >= 1 and not self.injector.errors,
            f"recoveries={recoveries}, errors={self.injector.errors}"))
        after = [t for t, _cid in completed
                 if recoveries and t > recoveries[-1][0]]
        self.checks.append(_check(
            "checkpoints_complete_after_recovery", bool(after),
            f"{len(after)} of {len(completed)} completed after recovery"))


class Sharded2(Steady):
    """The multi-process kernel on two workers against its single-process
    reference at the same (shard-profile) config.

    The timed region is the *reference* run; the sharded run follows it,
    untimed, and its wall-clock is reported as per-layer counters.  On
    the 2-vCPU box this was written on, two busy workers share one
    physical core and repetition-level sharded wall-clock spreads 11-18 %
    whatever it is calibrated by (single kernel, or one kernel per vCPU),
    so it cannot carry a bound; the reference run can.  The sharded run
    must still be certified, undegraded and equal to the reference.
    """

    SHARDS = 2

    def prepare(self, seed, scale, pacer):
        _Workload.prepare(self, seed, scale, pacer)
        config = JobConfig(shards=self.SHARDS)
        # The shard profile: the cut-edge flow-control window becomes the
        # engine-wide inbox on both runs, so the comparison is same-config.
        self.job_config = dataclasses.replace(
            config, inbox_capacity=config.shard_inbox_capacity)
        self._build(pacer, job_config=dataclasses.replace(
            self.job_config, shards=1))
        self.pacer = pacer

    def _factory(self):
        return make_workload(self.kind, QUICK, seed=self.seed)

    def _run_sharded(self):
        with self.pacer.span("sharded", "part"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.result = run_sharded(
                self._factory, until=self.until, shards=self.SHARDS,
                job_config=self.job_config,
                weights=SHARD_WEIGHTS.get(self.kind))
        self.warned = [str(item.message) for item in caught]

    def run_whole(self, pacer):
        super().run_whole(pacer)
        self._run_sharded()

    def run_paced(self, pacer):
        super().run_paced(pacer)
        self._run_sharded()

    def finish(self):
        result = self.result
        reference = ShardedRunResult(
            collect_run_view(self.job, list(self.job.graph.operators)),
            shards=1, until=self.until)
        self.shard_transport = result.transport
        self.workers_used = result.shards
        sync = result.sync_totals()
        reference_wall = self.pacer.wall("warmup") + self.pacer.wall("post")
        bottleneck = result.bottleneck_cpu_s
        self.counters.update({
            "simulation.sharded.records_per_wall_s":
                result.total_source_output() / result.wall_s,
            "simulation.sharded.speedup_measured":
                reference_wall / result.wall_s,
            # Modelled, not measured: one free core per shard assumed.
            "simulation.sharded.speedup_critical_path":
                reference_wall / bottleneck if bottleneck else 0.0,
            "simulation.sharded.bottleneck_cpu_s": bottleneck,
            "simulation.sharded.blocked_wait_s":
                sync.get("blocked_wait_s", 0.0),
            "simulation.sharded.grant_rounds": sync.get("grant_rounds", 0),
            "simulation.sharded.frames_sent": sync.get("frames_sent", 0),
            "simulation.sharded.bytes_shipped":
                sync.get("bytes_shipped", 0),
            "simulation.sharded.spills": sync.get("spills", 0),
            "simulation.sharded.replans": result.replans,
        })
        self.checks.append(_check(
            "sharded_certified", result.backpressure_safe,
            "; ".join(result.backpressure_detail[:2])))
        self.checks.append(_check(
            "sharded_not_degraded",
            result.shards == self.SHARDS and result.transport == "shm"
            and not self.warned,
            f"workers={result.shards}, transport={result.transport}, "
            f"warnings={self.warned}"))
        self.checks.append(_check(
            "sharded_equals_reference",
            result.semantic_view() == reference.semantic_view()))


def make(name: str) -> _Workload:
    """The workload registered under ``name`` in BENCHMARK.json."""
    table = {
        "q7_steady": lambda: Steady("q7", 150.0),
        "q8_steady": lambda: Steady("q8", 450.0),
        "twitch_steady": lambda: Steady("twitch", 220.0),
        "q7_rescale_drrs": lambda: RescaleDRRS(
            QUICK.warmup + QUICK.post_duration),
        "twitch_ckpt_crash": lambda: CheckpointCrash(160.0),
        "twitch_sharded2": lambda: Sharded2("twitch", 200.0),
    }
    if name not in table:
        raise ValueError(f"unknown workload: {name!r} "
                         f"(expected one of: {', '.join(table)})")
    return table[name]()
