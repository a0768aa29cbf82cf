"""One repetition of one workload, in a process of its own.

Launched by ``run.py``; prints one JSON object as its last line.  Modes:

* ``timed``  -- the run in slices, a calibration chunk between every
  two, labelled by harness-level phase;
* ``traced`` -- the run in one piece, as a user makes it, under cProfile,
  folded into layers;
* ``telemetry`` -- ``timed`` with the program's tracing switched on;
* ``micro``  -- the direct-call microbenchmarks (no workload).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from calib import CALIB_ROUNDS, Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

MODES = ("timed", "traced", "telemetry", "micro")


def scrub_environment() -> list:
    """Drop every ``REPRO_*`` variable: an inherited ``REPRO_SHARDS`` or
    ``REPRO_SCHEDULER`` would silently measure another configuration."""
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    return dropped


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_workload(args, spawned_at: float) -> dict:
    from workloads import Pacer, make

    pacer = Pacer(Calibrator(args.calib_rounds))
    workload = make(args.workload)
    workload.telemetry = args.mode == "telemetry"  # before prepare()
    workload.prepare(args.seed, args.scale, pacer)
    setup_end = time.time()

    profile = None
    gc.collect()
    gc.disable()
    try:
        pacer.calibrate()
        if args.mode == "traced":
            import cProfile
            profile = cProfile.Profile()
            profile.enable()
            try:
                workload.run_whole(pacer)
            finally:
                profile.disable()
        else:
            workload.run_paced(pacer)
        pacer.calibrate()
    finally:
        gc.enable()

    result = workload.outcome()
    to_epoch = time.time() - time.perf_counter()
    spans = [{"name": "setup", "kind": "setup", "start": spawned_at,
              "end": setup_end}]
    spans += [dict(span, start=span["start"] + to_epoch,
                   end=span["end"] + to_epoch) for span in pacer.spans]
    result.update({
        "setup_s": setup_end - spawned_at,
        "peak_rss_mib": peak_rss_mib(),
        "spans": spans,
    })
    if profile is not None:
        import pstats

        from layers import aggregate
        result["profile"] = aggregate(pstats.Stats(profile).stats)
    return result


def main(argv=None) -> int:
    spawned_default = time.time()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="")
    parser.add_argument("--mode", choices=MODES, default="timed")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--calib-rounds", type=int, default=CALIB_ROUNDS)
    parser.add_argument("--spawned-at", type=float, default=spawned_default)
    args = parser.parse_args(argv)

    dropped = scrub_environment()
    sys.path.insert(0, SRC)
    if args.mode == "micro":
        from micro import run_all
        result = run_all(args.scale, args.calib_rounds)
    else:
        result = run_workload(args, args.spawned_at)
    result.update({"workload": args.workload, "mode": args.mode,
                   "seed": args.seed, "scale": args.scale,
                   "dropped_env": dropped})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
