"""Deterministic fault injection and chaos testing (§IV-C robustness).

See :mod:`repro.faults.injector` for the fault model,
:mod:`repro.faults.invariants` for the safety properties checked after
recovery, and :mod:`repro.faults.chaos` for the scenario harness.  Ready
made scenarios live in :mod:`repro.experiments.chaos_bank`; run them with
``python -m repro chaos``.
"""

from .chaos import ChaosHarness, ChaosReport, ChaosScenario, ChaosSetup
from .injector import (CrashInstance, DelayRecords, DropRecords,
                       DuplicateRecords, FaultInjector, StallTransfers,
                       StallUploads)
from .invariants import (WatermarkMonitor, check_all,
                         check_backend_equivalence,
                         check_exactly_once_state,
                         check_routing_consistency, check_unique_ownership,
                         semantic_trace)

__all__ = [
    "FaultInjector",
    "CrashInstance",
    "DropRecords",
    "DuplicateRecords",
    "DelayRecords",
    "StallTransfers",
    "StallUploads",
    "ChaosHarness",
    "ChaosReport",
    "ChaosScenario",
    "ChaosSetup",
    "WatermarkMonitor",
    "check_all",
    "check_backend_equivalence",
    "check_exactly_once_state",
    "check_routing_consistency",
    "check_unique_ownership",
    "semantic_trace",
]
