"""Fig. 10 — end-to-end latency during scaling (§V-B).

Paper: DRRS vs Megaphone/Meces on NEXMark Q7, Q8 and Twitch, 8→12
instances.  Headline numbers: peak-latency reductions up to 81.1 %, average
up to 95.5 %, scaling-duration reductions of 72.8–86 %; on Twitch,
Megaphone's conservative migration yields comparable peak/average latencies
but a much longer scaling period.

Reproduced shape asserted here: DRRS's mean latency and scaling period beat
both baselines on every workload; peak latency beats the baselines on the
NEXMark queries (on Twitch, parity with conservative baselines is the
paper's own observation).
"""

from conftest import assert_rescales_finished, save_table

from repro.experiments import QUICK, run_fig10_latency
from repro.experiments.report import format_fig10


def test_fig10_latency(benchmark):
    out = benchmark.pedantic(run_fig10_latency, args=(QUICK,),
                             rounds=1, iterations=1)
    save_table("fig10_latency", format_fig10(out))

    # Megaphone's Naive Division does not get through Q8 in 150 s.
    assert_rescales_finished(out["results"], outlasting=("q8/megaphone",))
    results = out["results"]
    for workload in ("q7", "q8", "twitch"):
        drrs = results[workload]["drrs"]
        for other in ("megaphone", "meces"):
            base = results[workload][other]
            assert drrs.mean_latency <= base.mean_latency * 1.10, (
                f"{workload}: DRRS mean vs {other}")
            # 5 s absolute slack: the stabilization detector works on 2 s
            # latency buckets, so tiny periods compare within granularity.
            assert (drrs.scaling_period or 0) <= (
                base.scaling_period or 0) * 1.10 + 5.0, (
                f"{workload}: DRRS period vs {other}")
    for workload in ("q7", "q8"):
        drrs = results[workload]["drrs"]
        for other in ("megaphone", "meces"):
            assert drrs.peak_latency < results[workload][other].peak_latency

    # The headline direction: large reductions vs Megaphone on Q7/Q8.
    red = out["reductions"]
    assert red["q7"]["megaphone"]["mean_reduction_pct"] > 50
    assert red["q8"]["megaphone"]["mean_reduction_pct"] > 50
