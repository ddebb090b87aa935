"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.experiments import cli
from repro.experiments.cli import build_parser, main

#: The runner entry point each experiment subcommand hands its config to
#: (always as the first positional argument).
ENTRY_POINTS = {
    "detect": "run_detection_experiment",
    "table1": "sweep_lookback",
    "fig3": "sweep_quorum",
    "table2": "run_adaptive_experiment",
    "fig2": "run_error_trace",
    "fig4": "run_early_scenario",
}


class _ConfigBuilt(Exception):
    """Raised by a stubbed entry point, carrying the config it received."""


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub_actions = [
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        ]
        commands = set(sub_actions[0].choices)
        assert {"detect", "table1", "fig3", "table2", "fig2", "fig4"} <= commands

    def test_detect_defaults(self):
        args = build_parser().parse_args(["detect"])
        assert args.dataset == "cifar"
        assert args.lookback == 20
        assert args.quorum == 5

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--dataset", "mnist"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "flag", [["--exec-mode", "sync"], ["--pipeline-depth", "2"]]
    )
    def test_round_loop_flags_rejected(self, flag):
        """The round loop is synchronous only: neither flag parses."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", *flag])


class TestSharedExecutionFlags:
    """Every experiment subcommand builds its config through the one
    helper holding the shared execution flags."""

    @pytest.mark.parametrize("command", sorted(ENTRY_POINTS))
    def test_flags_reach_the_config(self, command, monkeypatch, tmp_path):
        def capture(config, *args, **kwargs):
            raise _ConfigBuilt(config)

        monkeypatch.setattr(cli, ENTRY_POINTS[command], capture)
        with pytest.raises(_ConfigBuilt) as built:
            main([
                command, "--workers", "3", "--cohort-size", "5",
                "--dtype", "float32", "--sanitize",
                "--trace", str(tmp_path), "--faults", "crash@3.train",
                "--task-deadline", "0.5", "--quorum-policy", "degrade",
                "--quorum-min", "2",
            ])
        config = built.value.args[0]
        assert (config.workers, config.engine) == (3, "thread")  # the one kind
        assert config.cohort_size == 5
        assert config.dtype_policy == "float32"
        assert config.sanitize
        assert config.trace == str(tmp_path)
        assert (config.faults, config.task_deadline_s) == ("crash@3.train", 0.5)
        assert (config.quorum_policy, config.quorum_min) == ("degrade", 2)

    def test_no_subcommand_takes_a_store_flag(self):
        """Every round runs in the caller's address space: the executor
        needs no store."""
        for command in ENTRY_POINTS:
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--store", "shared"])

    def test_no_subcommand_takes_an_engine_flag(self):
        """``--workers`` picks the thread engine; ``--seed-workers`` is the
        one flag that starts processes."""
        for command in ENTRY_POINTS:
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--engine", "process"])

    def test_negative_seed_workers_rejected(self):
        """Like ``--workers -1``, a negative seed-worker count is a config
        error, raised before any seed runs."""
        with pytest.raises(ValueError, match="seed_workers"):
            main(["detect", "--seeds", "1", "--seed-workers", "-3"])

    @pytest.mark.parametrize("command", ["table1", "fig3", "table2"])
    def test_every_seed_sweep_rejects_negative_seed_workers(
        self, command, monkeypatch
    ):
        """The sweeps fan seeds out through the same helper, so each
        rejects the count before any environment is built."""
        from repro.experiments import runner

        def no_run(*args, **kwargs):
            raise AssertionError("a seed ran despite the invalid count")

        monkeypatch.setattr(runner, "run_stable_scenario", no_run)
        with pytest.raises(ValueError, match="seed_workers"):
            main([command, "--seeds", "1", "--seed-workers", "-3"])

    @pytest.mark.parametrize(
        "flag", [["--codec", "identity"], ["--allow-lossy"]]
    )
    def test_no_subcommand_takes_a_codec_flag(self, flag):
        """Every store holds the policy-dtype vector itself; there is no
        weight codec to pick."""
        for command in ENTRY_POINTS:
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, *flag])


class TestExecution:
    def test_detect_runs_and_prints(self, capsys):
        code = main(["detect", "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FP" in out and "FN" in out

    def test_detect_server_mode(self, capsys):
        code = main(
            ["detect", "--seeds", "1", "--mode", "server", "--lookback", "10"]
        )
        assert code == 0
        assert "mode=server" in capsys.readouterr().out
