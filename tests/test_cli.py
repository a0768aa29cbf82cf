"""Command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out and "drrs" in out and "twitch" in out


def test_every_figure_is_registered():
    assert set(FIGURES) == {"fig02", "fig10", "fig11", "fig12", "fig13",
                            "fig14", "fig15"}


@pytest.mark.parametrize("command", ["run", "trace"])
def test_every_registered_controller_is_a_system_choice(command):
    """A name registered in the experiments' controller table reaches
    ``--system`` with no edit to the CLI."""
    from repro.experiments.figures import SYSTEMS
    parser = build_parser()
    for name in SYSTEMS:
        args = parser.parse_args([command, "custom", "--system", name])
        assert args.system == name


def test_parser_rejects_unknown_figure():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["figure", "fig99"])


def test_parser_rejects_unknown_scale():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["figure", "fig10", "--scale", "huge"])


def test_workload_command_runs(capsys):
    assert main(["workload", "custom", "--until", "5"]) == 0
    out = capsys.readouterr().out
    assert "records generated" in out
    assert "custom steady state" in out


def test_run_command_no_scale(capsys):
    assert main(["run", "custom", "--system", "no-scale"]) == 0
    out = capsys.readouterr().out
    assert "no-scale" in out


def test_run_new_parallelism_takes_effect():
    from repro.experiments.figures import _run_one
    from repro.experiments.scenarios import QUICK
    result = _run_one("custom", "drrs", QUICK, new_parallelism=5)
    assert len(result.job.instances("aggregator")) == 5
    assert result.scaling_metrics is not None


def test_run_command_passes_new_parallelism(capsys, monkeypatch):
    import repro.cli as cli
    captured = {}
    real = cli._run_one

    def spy(kind, system, scenario, **kwargs):
        captured.update(kind=kind, system=system, **kwargs)
        return real(kind, system, scenario, **kwargs)

    monkeypatch.setattr(cli, "_run_one", spy)
    assert main(["run", "custom", "--system", "drrs",
                 "--new-parallelism", "5"]) == 0
    assert captured["new_parallelism"] == 5
    assert "drrs" in capsys.readouterr().out


def test_workload_json(capsys):
    import json
    assert main(["workload", "custom", "--until", "5",
                 "--inspect", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["workload"] == "custom"
    assert "records generated" in doc["summary"]
    assert isinstance(doc["operators"], list)
    assert {"operator", "parallelism"} <= set(doc["operators"][0])


def test_figure_json(tmp_path, capsys, monkeypatch):
    import json
    import repro.cli as cli

    def stub_runner(scenario):
        return {"ratios": {"otfs": {"avg_ratio": 2.0, "peak_ratio": 3.0},
                           "unbound": {"avg_ratio": 1.0,
                                       "peak_ratio": 1.0}}}

    monkeypatch.setitem(cli.FIGURES, "fig02",
                        (stub_runner, cli.FIGURES["fig02"][1]))
    target = tmp_path / "fig02.json"
    assert main(["figure", "fig02", "--json",
                 "--output", str(target)]) == 0
    doc = json.loads(capsys.readouterr().out.split("[saved")[0])
    assert doc["figure"] == "fig02"
    assert doc["data"]["ratios"]["otfs"]["avg_ratio"] == 2.0
    assert json.loads(target.read_text())["figure"] == "fig02"


def test_trace_command(tmp_path, capsys):
    import json
    trace = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    assert main(["trace", "custom", "--output", str(trace),
                 "--jsonl", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert "Migration phase breakdown" in out
    assert "Subscale waves" in out
    doc = json.loads(trace.read_text())
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"rescale", "decouple", "state-transfer",
            "signal.injected"} <= names
    assert jsonl.exists()
    first = json.loads(jsonl.read_text().splitlines()[0])
    assert first["kind"] in ("span", "instant")


@pytest.mark.parametrize("command", ["chaos"])
def test_check_commands_document_exit_contract(command, capsys):
    # The exit-status contract is part of each check-style command's
    # --help (0 = pass, 1 = check failure, 2 = usage error).
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "exit status:" in out
    assert "usage error" in out


def test_chaos_takes_no_seed(capsys):
    # No fault draws a random number, so a chaos run has no seed axis.
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "double-fault", "--seed", "7"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_bench_is_not_a_command(capsys):
    # Host time is measured by the benchmark ledger; `bench` is gone.
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_autoscale_is_not_a_command(capsys):
    # Rescales start on a user request, as in the paper.
    with pytest.raises(SystemExit) as excinfo:
        main(["autoscale"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'autoscale'" in capsys.readouterr().err


def test_shard_check_is_not_a_command(capsys):
    # The sharded kernel runs plain jobs only; the benchmark ledger is
    # its one caller, and the tier-1 equivalence tests check it.
    with pytest.raises(SystemExit) as excinfo:
        main(["shard-check"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'shard-check'" in capsys.readouterr().err


def test_figure_output_file(tmp_path, capsys, monkeypatch):
    # Patch the fig02 runner with a stub so the test stays fast.
    import repro.cli as cli
    called = {}

    def stub_runner(scenario):
        called["scenario"] = scenario
        return {"ratios": {"otfs": {"avg_ratio": 2.0, "peak_ratio": 3.0},
                           "unbound": {"avg_ratio": 1.0,
                                       "peak_ratio": 1.0}}}

    monkeypatch.setitem(cli.FIGURES, "fig02",
                        (stub_runner, cli.FIGURES["fig02"][1]))
    target = tmp_path / "fig02.txt"
    assert main(["figure", "fig02", "--output", str(target)]) == 0
    assert target.exists()
    assert "otfs" in target.read_text()
    assert called["scenario"].name == "quick"
