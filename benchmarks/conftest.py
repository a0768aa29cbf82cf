"""Benchmark-suite helpers: every figure bench saves its table to
``benchmarks/results/`` and prints it, so `pytest benchmarks/
--benchmark-only` regenerates the paper's evaluation artifacts."""

from __future__ import annotations

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_table(name: str, text: str) -> None:
    """Save a formatted table as ``<name>.txt`` and print it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    print()
    print(text)
    print(f"[saved to {path}]")


def assert_rescales_finished(results, outlasting=()) -> None:
    """Every scaling run behind a figure really rescaled.

    ``results`` is any nesting of dicts ending in ``ExperimentResult``s.
    A rescale whose signal is dropped on the way never starts; the run
    then *is* the no-scale run, and every "no worse than the baseline"
    bound in the figure tests holds by construction.  Runs labelled in
    ``outlasting`` are known to outlast the horizon (their scaling period
    is censored in the tables); they must at least have moved state."""
    if isinstance(results, dict):
        for value in results.values():
            assert_rescales_finished(value, outlasting)
        return
    metrics = results.scaling_metrics
    if metrics is None:
        return
    assert metrics.migration_completed, (
        f"{results.label}: the rescale never moved a key-group")
    if results.label not in outlasting:
        assert metrics.finished_at is not None, (
            f"{results.label}: the rescale never finished")
