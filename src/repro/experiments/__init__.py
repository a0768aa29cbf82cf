"""Experiment harness and per-figure runners."""

from .harness import (ExperimentConfig, ExperimentResult,
                      detect_scaling_period, run_experiment)
from .figures import (controller_factory, run_fig02_unbound_probe,
                      run_fig10_latency, run_fig11_throughput,
                      run_fig12_propagation_dependency,
                      run_fig13_suspension, run_fig14_ablation,
                      run_fig15_sensitivity, run_main_comparison)
from .report import (format_fig02, format_fig10, format_fig12,
                     format_fig13, format_fig14, format_fig15,
                     format_table)
from .scenarios import PAPER, QUICK, Scenario, make_workload
from .timeline import ascii_timeline

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "detect_scaling_period",
    "run_experiment",
    "controller_factory",
    "run_fig02_unbound_probe",
    "run_fig10_latency",
    "run_fig11_throughput",
    "run_fig12_propagation_dependency",
    "run_fig13_suspension",
    "run_fig14_ablation",
    "run_fig15_sensitivity",
    "run_main_comparison",
    "format_fig02",
    "format_fig10",
    "format_fig12",
    "format_fig13",
    "format_fig14",
    "format_fig15",
    "format_table",
    "PAPER",
    "QUICK",
    "Scenario",
    "make_workload",
    "ascii_timeline",
]
