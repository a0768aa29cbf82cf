"""Fig. 14 — design-rationale isolation test (§V-C).

Paper (Twitch workload): the full DRRS system achieves the lowest peak and
average latencies; each mechanism in isolation degrades — Decoupling and
Re-routing alone worst (+30 % peak / +22 % avg), Record Scheduling alone
+18 %/+15 %, Subscale Division alone +23 %/+18 % — demonstrating the
mechanisms are synergistic.

Reproduced shape: full DRRS has the lowest (within noise) mean latency, and
no isolated variant beats it meaningfully.
"""

from conftest import assert_rescales_finished, save_table

from repro.experiments import QUICK, run_fig14_ablation
from repro.experiments.report import format_fig14


def test_fig14_ablation(benchmark):
    out = benchmark.pedantic(run_fig14_ablation, args=(QUICK,),
                             rounds=1, iterations=1)
    save_table("fig14_ablation", format_fig14(out))

    assert_rescales_finished(out["results"])
    rows = {r["variant"]: r for r in out["rows"]}
    full = rows["drrs"]
    for variant in ("dr", "schedule", "subscale"):
        row = rows[variant]
        # No isolated mechanism beats the integrated system (5 % noise
        # tolerance on this latency-noisy workload).
        assert row["mean_latency"] >= full["mean_latency"] * 0.95, variant
        assert row["peak_latency"] >= full["peak_latency"] * 0.95, variant
    # At least one isolated variant is measurably worse (synergy exists).
    assert any(rows[v]["mean_latency"] > full["mean_latency"] * 1.01
               for v in ("dr", "schedule", "subscale"))
