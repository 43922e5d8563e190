"""The ``python -m repro`` front door: command table, parser tree, and the
one mapping from outcomes to exit codes."""

import importlib
import os

import pytest

from repro.experiments import cli
from repro.experiments.cli import COMMANDS, main
from repro.experiments.figures import table1
from repro.runtime.backends import BackendStartupError
from repro.telemetry.sink import SPILL_ENV_VAR

#: the smallest argv that parses, for commands with required arguments
MINIMAL_ARGV = {
    "campaign": ["campaign", "status"],
    "profile": ["profile", "model"],
    "watch": ["watch", "feed.jsonl"],
}

ENV_VARS = ("REPRO_RNG_SANITIZE", SPILL_ENV_VAR)


def minimal_argv(cmd):
    return MINIMAL_ARGV.get(cmd, [cmd])


def test_list_prints_the_command_table_and_every_entry_has_help(capsys):
    assert main(["list"]) == 0
    listed = capsys.readouterr().out.split()
    assert listed == list(COMMANDS)
    assert "run" in listed
    for cmd in listed:
        assert main([cmd, "--help"]) == 0, cmd
        assert f"usage: python -m repro {cmd}" in capsys.readouterr().out


def test_command_modules_provide_configure_and_run_only():
    for name in sorted(set(COMMANDS.values())):
        module = importlib.import_module(name)
        assert callable(module.configure) and callable(module.run), name
        if name != cli.__name__:
            assert not hasattr(module, "main"), name


@pytest.mark.parametrize("cmd", ["fig3", "profile"])
def test_bad_engine_is_a_usage_error(cmd, capsys):
    argv = ["fig3", "--engine", "bogus"]
    if cmd == "profile":
        argv = ["profile", *argv]
    assert main(argv) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_environment_set_while_running_and_restored_after(
        tmp_path, monkeypatch, capsys):
    for var in ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    seen = []

    def probe():
        seen.append({var: os.environ.get(var) for var in ENV_VARS})
        return table1()

    monkeypatch.setitem(cli.EXPERIMENTS, "table1", probe)
    spill = str(tmp_path / "spill")
    assert main(["table1", "--quiet", "--log-spill", spill,
                 "--rng-sanitize", "warn"]) == 0
    assert main(["profile", "table1", "--quiet", "--engine", "fast",
                 "--trace-out", str(tmp_path / "t.json")]) == 0
    capsys.readouterr()
    assert seen == [
        {"REPRO_RNG_SANITIZE": "warn", SPILL_ENV_VAR: spill},
        {"REPRO_RNG_SANITIZE": None, SPILL_ENV_VAR: None},
    ]
    for var in ENV_VARS:
        assert var not in os.environ


@pytest.mark.parametrize("cmd", list(COMMANDS))
class TestExitCodeMapping:
    """Every command shares one outcome -> exit code mapping."""

    @staticmethod
    def _raise_from_run(monkeypatch, cmd, exc):
        def run(args):
            raise exc

        monkeypatch.setattr(importlib.import_module(COMMANDS[cmd]), "run", run)

    def test_interrupt_exits_130(self, cmd, monkeypatch, capsys):
        self._raise_from_run(monkeypatch, cmd, KeyboardInterrupt())
        assert main(minimal_argv(cmd)) == 130
        assert capsys.readouterr().err.splitlines() == ["error: interrupted"]

    def test_backend_startup_exits_1(self, cmd, monkeypatch, capsys):
        self._raise_from_run(monkeypatch, cmd,
                             BackendStartupError("port 9 already in use"))
        assert main(minimal_argv(cmd)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: backend startup: port 9 already in use"]

    def test_other_exception_exits_1(self, cmd, monkeypatch, capsys):
        self._raise_from_run(monkeypatch, cmd, RuntimeError("boom"))
        assert main(minimal_argv(cmd)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(": RuntimeError: boom")

    def test_bad_flag_returns_2(self, cmd, capsys):
        assert main([*minimal_argv(cmd), "--no-such-flag"]) == 2
        assert "unrecognized arguments: --no-such-flag" in \
            capsys.readouterr().err
