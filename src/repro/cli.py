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


def _cmd_chaos(args) -> int:
    from .experiments.chaos_bank import CHAOS_SCENARIOS
    from .faults.chaos import ChaosHarness

    names = list(CHAOS_SCENARIOS) if args.scenario == "all" \
        else [args.scenario]
    reports = []
    for name in names:
        report = ChaosHarness(CHAOS_SCENARIOS[name],
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

    from .experiments.chaos_bank import CHAOS_SCENARIOS
    p_chaos = sub.add_parser(
        "chaos",
        help="run fault-injection scenarios and check the §IV-C "
             "safety invariants",
        epilog=EXIT_CONTRACT.format(
            fail="any safety invariant is violated"),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_chaos.add_argument("scenario", nargs="?", default="all",
                         choices=("all",) + tuple(sorted(CHAOS_SCENARIOS)),
                         help="scenario name (default: every scenario)")
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
        "chaos": _cmd_chaos,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
