"""Chaos harness: run a scenario, inject faults, check invariants.

A :class:`ChaosScenario` is a named, seed-parameterised builder that
returns a fully wired :class:`ChaosSetup` — job, fault injector, recovery
manager, controllers, a per-operator oracle and a horizon.  The
:class:`ChaosHarness` then:

1. arms the injector and a :class:`~.invariants.WatermarkMonitor`,
2. runs the simulation to the horizon (long enough to quiesce: retries
   finish, sources finish replaying, channels drain),
3. evaluates the safety invariants (exactly-once state vs oracle, unique
   key-group ownership, routing consistency, watermark monotonicity)
   plus any scenario-specific expectations (e.g. "recovery used a
   checkpoint taken *during* the scaling operation"),
4. returns a :class:`ChaosReport` — JSON-serialisable, used by the
   ``repro chaos`` CLI and the CI chaos-smoke job.

Everything is deterministic in ``(scenario, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .invariants import WatermarkMonitor, check_all, semantic_trace

__all__ = ["ChaosScenario", "ChaosSetup", "ChaosReport", "ChaosHarness"]


@dataclass
class ChaosSetup:
    """Everything the harness needs to run and judge one scenario."""

    job: object
    injector: object
    #: Keyed operators whose structural invariants are checked.
    keyed_ops: List[str]
    horizon: float
    recovery: object = None
    #: op name -> (key -> expected reduced value), evaluated post-run.
    #: Populated by the scenario's generator as it offers records, so it
    #: is an oracle independent of replay history and of any faults.
    oracle: Dict[str, Dict] = field(default_factory=dict)
    #: Extra scenario-specific assertions, each returning violation
    #: strings: ``fn(setup) -> List[str]``.
    expectations: List[Callable] = field(default_factory=list)
    #: Interval for the watermark monitor (0 disables it).
    watermark_interval: float = 0.25
    #: Scenario-specific measurements; expectations may populate this and
    #: the harness copies it into the report (JSON-serialisable values).
    measurements: Dict = field(default_factory=dict)


@dataclass
class ChaosScenario:
    """A named builder:
    ``build(seed, state_backend=None, record_plane=None) -> ChaosSetup``.

    ``state_backend`` selects the keyed-state backend ("dict" or
    "changelog"; None keeps the scenario's own default) — every scenario
    must pass the same invariants under either, and the semantic traces
    must be identical (backend equivalence).  ``record_plane`` likewise
    selects the record plane; every plane must produce the same report
    apart from the kernel event and plane-collapse counts."""

    name: str
    build: Callable[..., ChaosSetup]
    description: str = ""


@dataclass
class ChaosReport:
    """Outcome of one seeded chaos run."""

    scenario: str
    seed: int
    passed: bool
    horizon: float
    #: Keyed-state backend the run used ("dict"/"changelog") — recorded
    #: so seeded-report diffs cannot silently compare across backends.
    state_backend: str = "dict"
    #: Record plane the job ran on, and how many times it collapsed to
    #: per-record state for a window (rescale, fault window, recovery).
    record_plane: str = "batched"
    plane_collapses: int = 0
    #: ``(time, kind, detail)`` per fired fault / closed window.
    faults: List = field(default_factory=list)
    #: Faults that fired but could not take effect.
    fault_errors: List = field(default_factory=list)
    #: ``(time, checkpoint id)`` per recovery performed.
    recoveries: List = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    kernel_events: int = 0
    #: Timing-free run outcome (:func:`~.invariants.semantic_trace`) —
    #: what the CI two-backend matrix diffs byte-for-byte.
    semantic_trace: Optional[Dict] = None
    #: Scenario-specific measurements (e.g. crash-large-state's
    #: recovery-time comparison), JSON-serialisable.
    measurements: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "passed": self.passed,
            "horizon": self.horizon,
            "state_backend": self.state_backend,
            "record_plane": self.record_plane,
            "plane_collapses": self.plane_collapses,
            "faults": [list(entry) for entry in self.faults],
            "fault_errors": [list(entry) for entry in self.fault_errors],
            "recoveries": [list(entry) for entry in self.recoveries],
            "violations": list(self.violations),
            "kernel_events": self.kernel_events,
            "semantic_trace": self.semantic_trace,
            "measurements": dict(self.measurements),
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"[{verdict}] {self.scenario} (seed={self.seed}, "
                 f"backend={self.state_backend}, "
                 f"plane={self.record_plane} collapsed "
                 f"{self.plane_collapses}x): "
                 f"{len(self.faults)} fault events, "
                 f"{len(self.recoveries)} recoveries, "
                 f"{len(self.violations)} violations"]
        for violation in self.violations:
            lines.append(f"  ! {violation}")
        for when, error in self.fault_errors:
            lines.append(f"  ~ t={when:.3f}: {error}")
        return "\n".join(lines)


class ChaosHarness:
    """Runs one scenario at one seed and judges the outcome.

    ``state_backend`` (None / "dict" / "changelog") and ``record_plane``
    (None / a ``JobConfig.RECORD_PLANES`` name) are forwarded to the
    scenario builder; None keeps the scenario's default."""

    def __init__(self, scenario: ChaosScenario, seed: int = 0,
                 state_backend: Optional[str] = None,
                 record_plane: Optional[str] = None):
        self.scenario = scenario
        self.seed = seed
        self.state_backend = state_backend
        self.record_plane = record_plane

    def run(self) -> ChaosReport:
        setup = self.scenario.build(self.seed,
                                    state_backend=self.state_backend,
                                    record_plane=self.record_plane)
        job = setup.job
        setup.injector.arm()
        monitor: Optional[WatermarkMonitor] = None
        if setup.watermark_interval > 0:
            monitor = WatermarkMonitor(
                job, recovery=setup.recovery,
                interval=setup.watermark_interval).start()
        job.run(until=setup.horizon)
        if monitor is not None:
            monitor.stop()

        violations: List[str] = []
        for op_name in setup.keyed_ops:
            violations += check_all(job, op_name,
                                    oracle=setup.oracle.get(op_name))
        if monitor is not None:
            violations += monitor.violations
        for expectation in setup.expectations:
            violations += list(expectation(setup))

        recoveries = (list(setup.recovery.recoveries)
                      if setup.recovery is not None else [])
        return ChaosReport(
            scenario=self.scenario.name,
            seed=self.seed,
            passed=not violations,
            horizon=setup.horizon,
            state_backend=getattr(job.config, "state_backend", "dict"),
            record_plane=job.config.record_plane,
            plane_collapses=job.plane_collapses,
            faults=list(setup.injector.injected),
            fault_errors=list(setup.injector.errors),
            recoveries=recoveries,
            violations=violations,
            kernel_events=job.sim.events_processed,
            semantic_trace=semantic_trace(job, setup.keyed_ops),
            measurements=dict(setup.measurements),
        )
