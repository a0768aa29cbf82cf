"""Fig. 11 — throughput during scaling (§V-B).

Paper: throughput drops when scaling begins, then overshoots (buffered
records flush once migration completes) and stabilizes at a higher level;
DRRS shows the smallest dip and the fastest return to the offered rate.
"""

from conftest import assert_rescales_finished, save_table

from repro.experiments import QUICK, run_fig11_throughput
from repro.experiments.report import format_table


def test_fig11_throughput(benchmark):
    out = benchmark.pedantic(run_fig11_throughput, args=(QUICK,),
                             rounds=1, iterations=1)
    save_table("fig11_throughput", format_table(
        out["recovery"],
        title="Fig. 11 — source throughput around the scaling operation "
              "(records/s)"))

    # Megaphone's Naive Division does not get through Q8 in 150 s.
    assert_rescales_finished(out["results"], outlasting=("q8/megaphone",))
    results = out["results"]
    for workload in ("q7", "q8", "twitch"):
        drrs = results[workload]["drrs"]
        # Post-scaling throughput must recover: no stranded backlog at the
        # sources by the end of the run (the offered rate is wave-modulated
        # on Twitch, so rate-vs-rate comparisons would be confounded).
        backlog = sum(
            sum(getattr(e, "count", 0) for e in source.pending)
            for source in drrs.job.sources())
        generated = drrs.source_records + backlog
        assert backlog <= generated * 0.02, (
            f"{workload}: DRRS left a source backlog of {backlog}")

    # DRRS's worst dip is no deeper than the baselines' on the heavy queries.
    dips = {(r["workload"], r["system"]): r["min_during"]
            for r in out["recovery"]}
    for workload in ("q7", "q8"):
        assert dips[(workload, "drrs")] >= min(
            dips[(workload, "megaphone")], dips[(workload, "meces")])
