"""Command-line interface: regenerate any figure or inspect workloads.

Examples::

    python -m repro list
    python -m repro figure fig10 --scale quick
    python -m repro figure fig15 --scale paper
    python -m repro run q7 --system drrs --new-parallelism 12
    python -m repro workload twitch --until 30
    python -m repro trace q8 --system drrs --output trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Optional

from .experiments import (PAPER, QUICK, format_fig02, format_fig10,
                          format_fig12, format_fig13, format_fig14,
                          format_fig15, format_table,
                          run_fig02_unbound_probe, run_fig10_latency,
                          run_fig11_throughput,
                          run_fig12_propagation_dependency,
                          run_fig13_suspension, run_fig14_ablation,
                          run_fig15_sensitivity)
from .experiments.figures import _run_one
from .experiments.report import format_table as _format_table
from .experiments.scenarios import make_workload

__all__ = ["main", "FIGURES"]

#: Shared exit-status contract for check-style subcommands, shown in
#: their ``--help`` epilog.  ``{fail}`` names what exit 1 means there.
EXIT_CONTRACT = """\
exit status:
  0  run completed and every check passed
  1  {fail}
  2  usage error (bad arguments or unreadable input files)
"""


def _fig11_text(out) -> str:
    return format_table(
        out["recovery"],
        title="Fig. 11 — source throughput around the scaling operation "
              "(records/s)")


#: figure name → (runner, formatter)
FIGURES: Dict[str, tuple] = {
    "fig02": (run_fig02_unbound_probe, format_fig02),
    "fig10": (run_fig10_latency, format_fig10),
    "fig11": (run_fig11_throughput, _fig11_text),
    "fig12": (run_fig12_propagation_dependency, format_fig12),
    "fig13": (run_fig13_suspension, format_fig13),
    "fig14": (run_fig14_ablation, format_fig14),
    "fig15": (run_fig15_sensitivity, format_fig15),
}

SYSTEMS = ("drrs", "megaphone", "meces", "otfs", "otfs-all-at-once",
           "unbound", "stop-restart", "dr", "schedule", "subscale")
WORKLOADS = ("q7", "q8", "twitch", "custom")


def _usage_error(message: str) -> SystemExit:
    """Exit 2 (usage) with a message — the argparse convention, kept
    for errors surfacing after parse time (see EXIT_CONTRACT)."""
    print(f"repro: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (exit 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _scenario(name: str):
    if name == "quick":
        return QUICK
    if name == "paper":
        return PAPER
    raise _usage_error(f"unknown scale {name!r}: use 'quick' or 'paper'")


def _cmd_list(_args) -> int:
    print("figures:   " + " ".join(sorted(FIGURES)))
    print("workloads: " + " ".join(WORKLOADS))
    print("systems:   " + " ".join(SYSTEMS))
    return 0


def _figure_json(obj):
    """Figure output → JSON-safe document (results become summaries)."""
    from .experiments.harness import ExperimentResult
    from .telemetry.exporters import _json_safe

    def convert(value):
        if isinstance(value, ExperimentResult):
            summary = dict(value.summary())
            summary["label"] = value.label
            return summary
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        return value

    return _json_safe(convert(obj))


def _cmd_figure(args) -> int:
    runner, formatter = FIGURES[args.name]
    scenario = _scenario(args.scale)
    out = runner(scenario)
    if args.json:
        text = json.dumps({"figure": args.name, "scale": args.scale,
                           "data": _figure_json(out)},
                          indent=1, sort_keys=True)
    else:
        text = formatter(out)
    print(text)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
        print(f"[saved to {args.output}]")
    return 0


def _cmd_run(args) -> int:
    scenario = _scenario(args.scale)
    system = None if args.system == "no-scale" else args.system
    result = _run_one(args.workload, system, scenario,
                      new_parallelism=args.new_parallelism)
    summary = result.summary()
    rows = [{"metric": k, "value": v} for k, v in summary.items()]
    print(_format_table(
        rows, title=f"{args.workload} under {summary['controller']}"))
    return 0


def _cmd_workload(args) -> int:
    workload = make_workload(args.name, _scenario(args.scale))
    job = workload.build()
    job.run(until=args.until)
    from .engine.introspection import operator_rows
    stats = job.metrics.latency_stats(args.until / 2, args.until)
    rows = [
        {"metric": "records generated",
         "value": job.metrics.total_source_output()},
        {"metric": "records delivered",
         "value": job.metrics.total_sink_input()},
        {"metric": "mean latency (s)", "value": stats["mean"]},
        {"metric": "p99 latency (s)", "value": stats["p99"]},
        {"metric": f"state of {workload.scaling_operator} (MB)",
         "value": job.total_state_bytes(workload.scaling_operator) / 1e6},
        {"metric": "kernel events", "value": job.sim.events_processed},
    ]
    if args.json:
        doc = {"workload": args.name, "until": args.until,
               "summary": {row["metric"]: row["value"] for row in rows}}
        if args.inspect:
            doc["operators"] = operator_rows(job)
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    if args.inspect:
        print(_format_table(operator_rows(job),
                            title=f"{args.name} operators at "
                                  f"t={args.until:.0f}s"))
        print()
    print(_format_table(rows, title=f"{args.name} steady state after "
                                    f"{args.until:.0f} simulated seconds"))
    return 0


def _cmd_trace(args) -> int:
    scenario = _scenario(args.scale)
    system = None if args.system == "no-scale" else args.system
    result = _run_one(args.workload, system, scenario,
                      new_parallelism=args.new_parallelism, telemetry=True)
    telemetry = result.telemetry
    from .telemetry import (migration_breakdown, phase_summary_table,
                            write_chrome_trace, write_jsonl)
    print(phase_summary_table(
        telemetry, title=f"{args.workload}/{system or 'no-scale'} "
                         "phase summary"))
    try:
        breakdown = migration_breakdown(telemetry)
    except ValueError:
        breakdown = None
    if breakdown is not None:
        waves = breakdown.pop("waves")
        rows = [{"metric": k, "value": v} for k, v in breakdown.items()]
        print()
        print(_format_table(rows, title="Migration phase breakdown "
                                        "(span-derived)"))
        print()
        print(_format_table(
            waves,
            columns=["subscale_id", "src", "dst", "start", "end",
                     "duration_s", "bytes_moved"],
            title="Subscale waves"))
    write_chrome_trace(telemetry, args.output)
    print(f"[chrome trace saved to {args.output}; load it at "
          "https://ui.perfetto.dev or chrome://tracing]")
    if args.jsonl:
        write_jsonl(telemetry, args.jsonl)
        print(f"[raw spans saved to {args.jsonl}]")
    return 0


def _cmd_shard_check(args) -> int:
    import dataclasses
    import os

    from .engine.runtime import JobConfig
    from .experiments.scenarios import QUICK, make_workload
    from .perf.benches import SHARD_WEIGHTS
    from .simulation.sharded import run_sharded, run_single_reference

    # The shard flow-control window applies to both runs (same-config
    # comparison): JobConfig owns the default / REPRO_SHARD_INBOX contract.
    config = JobConfig(shards=args.shards,
                       shard_inbox_capacity=args.inbox)
    config = dataclasses.replace(
        config, inbox_capacity=config.shard_inbox_capacity)

    def factory():
        return make_workload(args.workload, QUICK)

    single = run_single_reference(
        factory, until=args.until, job_config=config,
        collect_sinks=True, trace_watermarks=True)
    sharded = run_sharded(
        factory, until=args.until, shards=args.shards, job_config=config,
        weights=SHARD_WEIGHTS.get(args.workload),
        collect_sinks=True, trace_watermarks=True)
    equal = single.semantic_view() == sharded.semantic_view()

    def _sink_dump(result):
        # Sorted sink record views + counts: deterministic bytes, so CI
        # can diff the two files directly.
        view = result.semantic_view()
        return {"sink_events": view["sink_events"],
                "sinks": {name: {"records_in": s["records_in"],
                                 "collected": s["collected"]}
                          for name, s in sorted(view["sinks"].items())}}

    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for label, result in (("single", single), ("sharded", sharded)):
            path = os.path.join(args.output, f"sink-{label}.json")
            with open(path, "w") as f:
                json.dump(_sink_dump(result), f, indent=1, sort_keys=True)
                f.write("\n")

    sync = sharded.sync_totals()
    report = {
        "workload": args.workload,
        "until": args.until,
        "shards_requested": sharded.shards_requested,
        "workers": sharded.shards,
        "degraded": sharded.degraded,
        "plan": [list(s) for s in sharded.plan.shards]
        if sharded.plan else [],
        "replans": sharded.replans,
        "forbidden_cuts": sharded.forbidden_cuts,
        "backpressure_safe": sharded.backpressure_safe,
        "backpressure_detail": sharded.backpressure_detail,
        "results_equal": equal,
        "sink_records_single": single.total_sink_input(),
        "sink_records_sharded": sharded.total_sink_input(),
        "transport": sharded.transport,
        "inbox_capacity": config.shard_inbox_capacity,
        "sync": sync,
        "sync_per_shard": [
            {k: v for k, v in s.items() if k != "blocked_intervals"}
            for s in sharded.sync_per_shard],
    }
    if args.trace_out:
        from .telemetry.shards import write_shard_sync_trace
        write_shard_sync_trace(sharded.sync_per_shard, args.trace_out)
        report["trace"] = args.trace_out
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        plan = " | ".join("+".join(s) for s in report["plan"]) or "(single)"
        print(f"[{args.workload} until={args.until:g} "
              f"shards={sharded.shards}: {plan}]")
        print(f"  results {'EQUAL' if equal else 'DIFFER'}, "
              f"flow-control certification "
              f"{'OK' if sharded.backpressure_safe else 'FAILED'}, "
              f"sink records {single.total_sink_input()} vs "
              f"{sharded.total_sink_input()}")
        if sync:
            print(f"  nulls sent/suppressed="
                  f"{sync.get('null_sent', 0)}/"
                  f"{sync.get('null_suppressed', 0)} "
                  f"grant rounds={sync.get('grant_rounds', 0)} "
                  f"frames={sync.get('frames_sent', 0)} "
                  f"cut bytes={sync.get('bytes_shipped', 0)} "
                  f"spills={sync.get('spills', 0)}")
            print(f"  blocked waits={sync.get('blocked_waits', 0)} "
                  f"({sync.get('blocked_wait_s', 0.0):.3f}s), "
                  f"writer-full waits "
                  f"{sync.get('writer_full_wait_s', 0.0):.3f}s")
        for line in sharded.backpressure_detail:
            print(f"  {line}", file=sys.stderr)
    short = sharded.shards < sharded.shards_requested
    if short:
        print(f"shard-check: asked for {sharded.shards_requested} workers, "
              f"ran {sharded.shards} [{', '.join(sharded.degraded)}]",
              file=sys.stderr)
    ok = equal and sharded.backpressure_safe and not short
    return 0 if ok else 1


def _cmd_chaos(args) -> int:
    from .experiments.chaos_bank import CHAOS_SCENARIOS
    from .faults.chaos import ChaosHarness

    names = list(CHAOS_SCENARIOS) if args.scenario == "all" \
        else [args.scenario]
    reports = []
    for name in names:
        for seed in args.seed:
            report = ChaosHarness(
                CHAOS_SCENARIOS[name], seed=seed,
                state_backend=args.state_backend).run()
            reports.append(report)
            if not args.json:
                print(report.summary())
    doc = {"passed": all(r.passed for r in reports),
           "runs": [r.to_dict() for r in reports]}
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    if args.output:
        with open(args.output, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
        if not args.json:
            print(f"[invariant report saved to {args.output}]")
    return 0 if doc["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DRRS reproduction: regenerate the paper's evaluation "
                    "on the simulated streaming engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list figures, workloads and systems")

    p_figure = sub.add_parser("figure", help="regenerate one figure")
    p_figure.add_argument("name", choices=sorted(FIGURES))
    p_figure.add_argument("--scale", default="quick",
                          choices=("quick", "paper"))
    p_figure.add_argument("--output", help="also save the output here")
    p_figure.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON instead of the "
                               "formatted table")

    p_run = sub.add_parser("run",
                           help="run one workload under one mechanism")
    p_run.add_argument("workload", choices=WORKLOADS)
    p_run.add_argument("--system", default="drrs",
                       choices=SYSTEMS + ("no-scale",))
    p_run.add_argument("--scale", default="quick",
                       choices=("quick", "paper"))
    p_run.add_argument("--new-parallelism", type=int, default=None,
                       help="target parallelism of the scaling operator "
                            "(default: the scenario's)")

    p_workload = sub.add_parser("workload",
                                help="run a workload without scaling")
    p_workload.add_argument("name", choices=WORKLOADS)
    p_workload.add_argument("--until", type=float, default=30.0)
    p_workload.add_argument("--inspect", action="store_true",
                            help="print per-operator load/queue/state rows")
    p_workload.add_argument("--scale", default="quick",
                            choices=("quick", "paper"))
    p_workload.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON instead of "
                                 "the formatted tables")

    p_trace = sub.add_parser(
        "trace",
        help="run one workload with tracing enabled and export the trace")
    p_trace.add_argument("workload", choices=WORKLOADS)
    p_trace.add_argument("--system", default="drrs",
                         choices=SYSTEMS + ("no-scale",))
    p_trace.add_argument("--scale", default="quick",
                         choices=("quick", "paper"))
    p_trace.add_argument("--new-parallelism", type=int, default=None,
                         help="target parallelism of the scaling operator "
                              "(default: the scenario's)")
    p_trace.add_argument("--output", default="trace.json",
                         help="Chrome trace-event file (Perfetto-loadable)")
    p_trace.add_argument("--jsonl",
                         help="also dump raw spans/events as JSON Lines")

    p_shard = sub.add_parser(
        "shard-check",
        help="run one workload sharded and single-process at the same "
             "config and compare results exactly",
        epilog=EXIT_CONTRACT.format(
            fail="the sharded run's results differ from single-process, "
                 "its flow-control certification fails, or it ran on fewer "
                 "workers than --shards asked for"),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_shard.add_argument("--workload", default="q7",
                         choices=("q7", "q8", "twitch"))
    p_shard.add_argument("--until", type=float, default=60.0,
                         help="simulated seconds to run (default 60)")
    p_shard.add_argument("--shards", type=_positive_int, default=2,
                         help="worker processes (default 2)")
    p_shard.add_argument("--output", default=None,
                         help="directory to write sink-dump JSON files "
                              "(sink-single.json / sink-sharded.json) for "
                              "byte-for-byte diffing in CI")
    p_shard.add_argument("--json", action="store_true",
                         help="print the comparison report as JSON")
    p_shard.add_argument("--inbox", type=_positive_int, default=None,
                         metavar="N",
                         help="shard flow-control window "
                              "(default: REPRO_SHARD_INBOX or 512)")
    p_shard.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write the per-shard sync-protocol blocked "
                              "waits as a Chrome trace (open in "
                              "ui.perfetto.dev)")

    from .experiments.chaos_bank import CHAOS_SCENARIOS
    p_chaos = sub.add_parser(
        "chaos",
        help="run seeded fault-injection scenarios and check the §IV-C "
             "safety invariants",
        epilog=EXIT_CONTRACT.format(
            fail="any safety invariant is violated"),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_chaos.add_argument("scenario", nargs="?", default="all",
                         choices=("all",) + tuple(sorted(CHAOS_SCENARIOS)),
                         help="scenario name (default: every scenario)")
    p_chaos.add_argument("--seed", type=int, action="append", default=None,
                         help="seed(s) to run; repeatable (default: 7)")
    p_chaos.add_argument("--state-backend", default=None,
                         choices=("dict", "changelog"),
                         help="force every scenario onto this keyed-state "
                              "backend (default: each scenario's own; the "
                              "report records which backend ran)")
    p_chaos.add_argument("--output",
                         help="save the invariant report as JSON here")
    p_chaos.add_argument("--json", action="store_true",
                         help="print the report as JSON instead of "
                              "summaries")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers: Dict[str, Callable] = {
        "list": _cmd_list,
        "figure": _cmd_figure,
        "run": _cmd_run,
        "workload": _cmd_workload,
        "trace": _cmd_trace,
        "shard-check": _cmd_shard_check,
        "chaos": _cmd_chaos,
    }
    if args.command == "chaos" and args.seed is None:
        args.seed = [7]
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
