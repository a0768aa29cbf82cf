#!/usr/bin/env python3
"""Layer-attributed benchmark ledger: one command, six workloads.

Two ways to run it, one code path underneath:

* ``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
  --trace 0|1`` -- one workload; the last line of standard output is one
  JSON object (``correct``, ``attempted``, ``failed``, ``metrics``) with
  the end-to-end metrics (``--trace 0``) or the per-layer metrics
  (``--trace 1``) that ``BENCHMARK.json`` registers.
* ``python3 benchmarks/ledger/run.py [--seed 7] [--out DIR]`` -- every
  workload, both passes, printed as tables; ``--check-repeat`` runs two
  complete sets and compares them against the bounds, ``--smoke`` runs a
  short horizon for the self-tests.

This process never imports the program under test.  It launches one
worker process per (workload, repetition), one at a time, round-robin
across workloads, and reduces their JSON results to medians.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from calib import CALIB_NOMINAL_S, CALIB_ROUNDS  # noqa: E402
from layers import LAYERS  # noqa: E402

#: Repetitions per workload of a full ledger run.
LEDGER_REPS = 7
LEDGER_REPS_SHARDED = 9
#: Fewest repetitions a median is taken over.
MIN_REPS = 3
MIN_TRACE_REPS = 2
#: A worker that runs this long is stuck; the driver kills its group.
WORKER_TIMEOUT_S = 150.0

SMOKE = {"scale": 0.06, "calib_rounds": CALIB_ROUNDS // 10, "reps": 2,
         "trace_reps": 1}

#: The simulated results: exact for a seed, so two sets must agree to the
#: last digit.  ``None`` where the workload has no such event.
SIM_METRICS = ("sim_peak_latency_s", "sim_mean_latency_s",
               "sim_p95_latency_s", "sim_min_throughput_rps",
               "sim_scaling_period_s", "sim_recovery_s")


class WorkerFailed(RuntimeError):
    """A worker exited non-zero, timed out or printed no result."""


def load_registry() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Launching workers
# ---------------------------------------------------------------------------

def spawn(workload: str, mode: str, seed: int, scale: float = 1.0,
          calib_rounds: int = CALIB_ROUNDS) -> Dict:
    """Run one worker to completion and return its result."""
    command = [sys.executable, WORKER, "--workload", workload,
               "--mode", mode, "--seed", str(seed), "--scale", repr(scale),
               "--calib-rounds", str(calib_rounds),
               "--spawned-at", repr(time.time())]
    # A session of its own, so a stuck sharded run's forked workers can
    # be stopped together with it.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise WorkerFailed(f"{workload}/{mode}: timed out")
    except BaseException:
        _kill_group(proc)
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}/{mode}: exit {proc.returncode}\n"
                           f"{err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["calib_rounds"] = calib_rounds
    return result


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


# ---------------------------------------------------------------------------
# Reducing repetitions
# ---------------------------------------------------------------------------

def calibrated_s(rep: Dict, kind: str = "run", reach: int = 1) -> float:
    """Seconds of the spans of ``kind``, each scaled by how slow the box
    was around it: the mean of the ``reach`` calibration chunks on
    either side."""
    nominal = CALIB_NOMINAL_S * rep["calib_rounds"] / CALIB_ROUNDS
    spans = rep["spans"]
    chunks = [(i, span["end"] - span["start"])
              for i, span in enumerate(spans)
              if span["kind"] == "calibration"]
    total = 0.0
    for i, span in enumerate(spans):
        if span["kind"] != kind:
            continue
        before = [wall for c, wall in chunks if c < i][-reach:]
        after = [wall for c, wall in chunks if c > i][:reach]
        total += ((span["end"] - span["start"])
                  * nominal / statistics.fmean(before + after))
    return total


def wall_s(rep: Dict, key: str = "kind", value: str = "run") -> float:
    """Uncalibrated seconds of the spans whose ``key`` is ``value``: by
    default the timed region; ``wall_s(rep, "name", "warmup")`` a phase."""
    return sum(span["end"] - span["start"] for span in rep["spans"]
               if span[key] == value)


def iqr_rel(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def collect_checks(reps: List[Dict]) -> List[Dict]:
    """Every repetition's checks plus the across-repetition ones."""
    checks = [dict(check, rep=i) for i, rep in enumerate(reps)
              for check in rep["checks"]]
    digests = sorted({rep["digest"] for rep in reps})
    checks.append({"name": "repetitions_same_digest",
                   "ok": len(digests) == 1,
                   "detail": f"digests {digests}"})
    return checks


def end_to_end(reps: List[Dict]) -> Dict[str, Optional[float]]:
    """The host-cost metrics of one workload's timed repetitions."""
    return {
        "host_records_per_s": reps[0]["source_records"] / statistics.median(
            calibrated_s(rep) for rep in reps),
        # Set-up is ~0.3 s long and has chunks only after it: take three.
        "setup_s": statistics.median(calibrated_s(rep, "setup", reach=3)
                                     for rep in reps),
        "peak_rss_mib": statistics.median(rep["peak_rss_mib"]
                                          for rep in reps),
    }


def sim_results(rep: Dict) -> Dict[str, Optional[float]]:
    return {name: rep["sim"].get(name) for name in SIM_METRICS}


def per_layer(timed: List[Dict], traced: Dict, telemetry: Optional[Dict],
              micro: Dict) -> Dict[str, float]:
    """Every per-layer metric of one workload's traced pass."""
    metrics: Dict[str, float] = {}
    for row in traced["profile"]["rows"]:
        metrics[f"{row['layer']}.self_share"] = row["self_share"]
        metrics[f"{row['layer']}.calls"] = row["calls"]
    untraced = statistics.median(calibrated_s(rep) for rep in timed)
    source = timed[0]["source_records"]
    metrics["trace.overhead_ratio"] = calibrated_s(traced) / untraced
    metrics["trace.calls_per_record"] = (
        traced["profile"]["total_calls"] / source)

    counters = sorted({name for rep in timed for name in rep["counters"]})
    for name in counters:
        metrics[name] = statistics.median(
            rep["counters"].get(name, 0) for rep in timed)
    for name, value in sim_results(timed[0]).items():
        metrics[name] = value if value is not None else 0.0

    def phase(name):
        return statistics.median(wall_s(rep, "name", name) for rep in timed)

    first = timed[0]
    warm_sim = first["phase_sim_s"].get("warmup", 0.0)
    migration_sim = first["phase_sim_s"].get("migration", 0.0)
    warm_cost = phase("warmup") / warm_sim if warm_sim else 0.0
    migration_cost = (phase("migration") / migration_sim
                      if migration_sim else 0.0)
    metrics.update({
        "experiments.build_s": phase("build"),
        "experiments.warmup_wall_s": phase("warmup"),
        "experiments.migration_wall_s": phase("migration"),
        "experiments.post_wall_s": phase("post") + phase("recovery"),
        "experiments.migrating_cost_ratio":
            migration_cost / warm_cost if warm_cost else 0.0,
        "experiments.raw_records_per_s": source / statistics.median(
            wall_s(rep) for rep in timed),
        "experiments.calib_s": statistics.median(
            span["end"] - span["start"] for rep in timed
            for span in rep["spans"] if span["kind"] == "calibration"),
        "experiments.rep_iqr_rel": iqr_rel(
            [calibrated_s(rep) for rep in timed]),
        "telemetry.on_off_ratio":
            calibrated_s(telemetry) / untraced if telemetry else 0.0,
    })
    metrics.update(micro["micro"])
    return metrics


def trace_checks(metrics: Dict[str, float]) -> List[Dict]:
    total = sum(metrics[f"{layer}.self_share"] for layer in LAYERS)
    return [{"name": "layer_shares_sum_to_one",
             "ok": abs(total - 1.0) <= 0.01,
             "detail": f"sum of self_share = {total:.4f}"}]


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def chrome_trace(reps: List[Dict]) -> Dict:
    """Harness-level phases as Chrome-trace spans, one track per
    repetition (the spans of one repetition share its id)."""
    origin = min(span["start"] for rep in reps for span in rep["spans"])
    events = []
    for rep_id, rep in enumerate(reps):
        for span in rep["spans"]:
            events.append({
                "name": span["name"], "cat": rep["mode"], "ph": "X",
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": 1, "tid": rep_id,
                "args": {"rep": rep_id, "workload": rep["workload"],
                         "mode": rep["mode"], "seed": rep["seed"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_artifacts(out: str, workload: str, reps: List[Dict],
                    traced: Optional[Dict]) -> None:
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"phases_{workload}.json"), "w") as f:
        json.dump(chrome_trace(reps), f)
    if traced is not None:
        doc = {"workload": workload, "seed": traced["seed"],
               "config": traced["config"],
               "run_wall_s": wall_s(traced),
               "layers": traced["profile"]["rows"]}
        with open(os.path.join(out, f"trace_{workload}.json"), "w") as f:
            json.dump(doc, f, indent=1)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def timed_pass(workloads: List[str], seed: int, reps_for, scale: float,
               calib_rounds: int) -> Dict[str, List[Dict]]:
    """Timed repetitions, round-robin across workloads so a noisy
    half-minute on the box hits all of them."""
    reps: Dict[str, List[Dict]] = {name: [] for name in workloads}
    wanted = {name: reps_for(name) for name in workloads}
    for index in range(max(wanted.values())):
        for name in workloads:
            if index < wanted[name]:
                reps[name].append(
                    spawn(name, "timed", seed, scale, calib_rounds))
    return reps


def micro_pass(seed: int, scale: float, calib_rounds: int) -> Dict:
    """The microbenchmarks: workload-independent, so a ledger run makes
    them once."""
    return spawn("", "micro", seed, min(scale * 2, 1.0), calib_rounds)


def traced_pass(workload: str, seed: int, scale: float, calib_rounds: int,
                micro: Dict, trace_reps: int = MIN_TRACE_REPS,
                timed_budget_s: float = 0.0) -> Dict:
    """Timed repetitions, the cProfile run and the telemetry run of one
    workload, reduced together with ``micro`` to its per-layer metrics."""
    start = time.perf_counter()
    timed = []
    while (len(timed) < trace_reps
           or time.perf_counter() - start < timed_budget_s):
        timed.append(spawn(workload, "timed", seed, scale, calib_rounds))
    traced = spawn(workload, "traced", seed, scale, calib_rounds)
    telemetry = (spawn(workload, "telemetry", seed, scale, calib_rounds)
                 if workload == "q7_rescale_drrs" else None)
    metrics = per_layer(timed, traced, telemetry, micro)
    reps = timed + [traced] + ([telemetry] if telemetry else [])
    checks = collect_checks(reps) + trace_checks(metrics)
    return {"metrics": metrics, "checks": checks, "reps": reps,
            "traced": traced}


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def units(registry: Dict) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in registry["end_to_end"] + registry["per_layer"]}


def show(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.6g}"


def print_metrics(title: str, metrics: Dict, unit_of: Dict[str, str],
                  reasons: Optional[Dict[str, str]] = None) -> None:
    print(title)
    for name, value in metrics.items():
        reason = (reasons or {}).get(name, "")
        note = f"  ({reason})" if value is None and reason else ""
        print(f"  {name:52s} {show(value):>18s} {unit_of.get(name, ''):10s}"
              f"{note}")


def print_config(rep: Dict) -> None:
    config = ", ".join(f"{k}={v}" for k, v in rep["config"].items())
    print(f"  effective config: {config}")
    if rep["dropped_env"]:
        print(f"  dropped from environment: {rep['dropped_env']}")


def print_failures(checks: List[Dict]) -> None:
    for check in checks:
        if not check["ok"]:
            print(f"  FAILED {check['name']}: {check['detail']}")


# ---------------------------------------------------------------------------
# The contract mode: one workload, one JSON line
# ---------------------------------------------------------------------------

def run_contract(args, registry: Dict) -> int:
    unit_of = units(registry)
    start = time.perf_counter()
    if args.trace:
        result = traced_pass(args.workload, args.seed, 1.0, CALIB_ROUNDS,
                             micro_pass(args.seed, 1.0, CALIB_ROUNDS),
                             timed_budget_s=0.3 * args.seconds)
        names = [m["name"] for m in registry["per_layer"]]
        # A counter of a layer this workload never enters reads 0.
        metrics = {name: result["metrics"].get(name, 0.0) for name in names}
        checks, reps = result["checks"], result["reps"]
        traced = result["traced"]
    else:
        reps = []
        while True:
            reps.append(spawn(args.workload, "timed", args.seed))
            elapsed = time.perf_counter() - start
            if (len(reps) >= MIN_REPS
                    and elapsed + elapsed / len(reps) > args.seconds):
                break
        metrics, checks = end_to_end(reps), collect_checks(reps)
        names = [m["name"] for m in registry["end_to_end"]]
        traced = None
    write_artifacts(args.out, args.workload, reps, traced)

    print(f"{args.workload}: seed {args.seed}, {len(reps)} repetitions, "
          f"{time.perf_counter() - start:.1f} s")
    print_config(reps[0])
    print_failures(checks)
    failed = sum(1 for check in checks if not check["ok"])
    payload = {name: {"value": metrics[name], "unit": unit_of[name]}
               for name in names}
    print_metrics("metrics:", {name: metrics[name] for name in names},
                  unit_of)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": payload}))
    return 0


# ---------------------------------------------------------------------------
# The ledger mode: every workload, both passes
# ---------------------------------------------------------------------------

NULL_REASONS = {
    "sim_scaling_period_s": "no rescale in this workload",
    "sim_recovery_s": "no crash in this workload",
}


def run_set(workloads: List[str], args, settings: Dict) -> Dict[str, Dict]:
    """One complete timed set, reduced per workload."""
    def reps_for(name):
        if "reps" in settings:
            return settings["reps"]
        return (LEDGER_REPS_SHARDED if name == "twitch_sharded2"
                else LEDGER_REPS)

    reps = timed_pass(workloads, args.seed, reps_for, settings["scale"],
                      settings["calib_rounds"])
    summary = {}
    for name in workloads:
        checks = collect_checks(reps[name])
        failed = sum(1 for check in checks if not check["ok"])
        metrics = end_to_end(reps[name])
        metrics.update(sim_results(reps[name][0]))
        metrics["failed_share"] = failed / len(checks)
        seconds = [calibrated_s(rep) for rep in reps[name]]
        summary[name] = {"metrics": metrics, "checks": checks,
                         "reps": reps[name], "samples": len(seconds),
                         "rep_iqr_rel": iqr_rel(seconds)}
    return summary


def compare_sets(first: Dict, second: Dict, registry: Dict) -> int:
    """Print per (metric, workload) the relative difference of two sets
    of the same code next to its bound; count the breaches."""
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in registry["end_to_end"]}
    breaches = 0
    print("\ncheck-repeat: second set against the first")
    for name in first:
        for metric, a in first[name]["metrics"].items():
            b = second[name]["metrics"][metric]
            if metric in bounds:
                bound, better = bounds[metric]
                worse = (a - b) / a if better == "higher" else (b - a) / a
                ok = worse <= bound
                rule = f"bound {bound:.2f}"
            else:
                # Simulated results and the failed share: exact.
                worse = 0.0 if a == b else float("inf")
                ok = a == b
                rule = "must be identical"
            breaches += not ok
            diff = "n/a" if a is None else f"{worse:+.4f}"
            print(f"  {name:18s} {metric:24s} {show(a):>14s} "
                  f"{show(b):>14s}  worse by {diff:>8s}  {rule}"
                  f"{'' if ok else '  BREACH'}")
    return breaches


def run_ledger(args, registry: Dict) -> int:
    unit_of = units(registry)
    unit_of.update({"failed_share": "ratio"})
    workloads = [w["name"] for w in registry["workloads"]]
    settings = (SMOKE if args.smoke
                else {"scale": 1.0, "calib_rounds": CALIB_ROUNDS})
    first = run_set(workloads, args, settings)
    failed = 0
    for name in workloads:
        entry = first[name]
        print(f"\n== {name}: seed {args.seed}, {entry['samples']} "
              f"repetitions, calibrated run seconds IQR/median "
              f"{entry['rep_iqr_rel']:.4f}")
        print_config(entry["reps"][0])
        print_failures(entry["checks"])
        print_metrics("end-to-end:", entry["metrics"], unit_of,
                      NULL_REASONS)
        failed += sum(1 for check in entry["checks"] if not check["ok"])

    breaches = 0
    if args.check_repeat:
        breaches = compare_sets(first, run_set(workloads, args, settings),
                                registry)
    else:
        layer_names = [m["name"] for m in registry["per_layer"]
                       if m["name"] not in SIM_METRICS]
        micro = micro_pass(args.seed, settings["scale"],
                           settings["calib_rounds"])
        for name in workloads:
            result = traced_pass(name, args.seed, settings["scale"],
                                 settings["calib_rounds"], micro,
                                 settings.get("trace_reps",
                                              MIN_TRACE_REPS))
            write_artifacts(args.out, name,
                            first[name]["reps"] + result["reps"],
                            result["traced"])
            print(f"\n== {name}: per-layer")
            print_failures(result["checks"])
            print_metrics("per-layer:", {n: result["metrics"].get(n, 0.0)
                                         for n in layer_names}, unit_of)
            failed += sum(1 for c in result["checks"] if not c["ok"])
            first[name]["per_layer"] = result["metrics"]
        print(f"\nartifacts written to {args.out}")
        if args.json:
            with open(args.json, "w") as f:
                json.dump({name: {
                    "end_to_end": first[name]["metrics"],
                    "per_layer": first[name]["per_layer"],
                    "config": first[name]["reps"][0]["config"],
                    "repetitions": [{"digest": rep["digest"],
                                     "sim": rep["sim"]}
                                    for rep in first[name]["reps"]],
                } for name in workloads}, f, indent=1)
    print(f"\n{failed} failed checks, {breaches} repeat breaches")
    return 1 if failed or breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".ledger_out"),
                        help="directory for the trace and phase artifacts")
    parser.add_argument("--json", help="also write the ledger as JSON here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    registry = load_registry()
    known = [w["name"] for w in registry["workloads"]]
    if args.workload is not None and args.workload not in known:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(known)}", file=sys.stderr)
        return 2
    try:
        if args.workload is not None:
            return run_contract(args, registry)
        return run_ledger(args, registry)
    except WorkerFailed as error:
        print(f"worker failed: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
