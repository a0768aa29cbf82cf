"""Fig. 2 — the Unbound probe (§II-B).

Paper: on Twitch at fixed rate, generalized OTFS (fluid) raises average /
peak latency to 3.47× / 4.8× of No Scale, while the correctness-free Unbound
probe stays at 1.25× / 1.14× — establishing that propagation, suspension and
dependency delays are the core on-the-fly-scaling overheads.

Reproduced shape: Unbound's latency ratios are far below OTFS's, and close
to the no-scale level.
"""

from conftest import assert_rescales_finished, save_table

from repro.experiments import QUICK, run_fig02_unbound_probe
from repro.experiments.report import format_fig02


def test_fig02_unbound_probe(benchmark):
    out = benchmark.pedantic(run_fig02_unbound_probe, args=(QUICK,),
                             rounds=1, iterations=1)
    save_table("fig02_unbound_probe", format_fig02(out))

    assert_rescales_finished(out["results"])
    otfs = out["ratios"]["otfs"]
    unbound = out["ratios"]["unbound"]
    # OTFS pays L_p, L_s and L_d: a rescale that disturbs nothing did not
    # happen (a scaling barrier dropped on its way reads exactly 1.00).
    assert otfs["avg_ratio"] > 1.05
    assert otfs["peak_ratio"] > 1.05
    # Unbound eliminates L_p and L_s: it must beat OTFS on both ratios
    # and sit near the no-scale level.
    assert unbound["avg_ratio"] <= otfs["avg_ratio"]
    assert unbound["peak_ratio"] <= otfs["peak_ratio"] * 1.05
    assert unbound["avg_ratio"] < 1.6

    # Unbound suspends nothing (universal keys).
    unbound_metrics = out["results"]["unbound"].scaling_metrics
    assert unbound_metrics.total_suspension() == 0.0
