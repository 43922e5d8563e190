"""Tests for ``python -m repro campaign`` (and its dispatch from the
main CLI)."""

import json

import pytest

from repro.experiments.cli import main

QUICK = "tests.campaign_helpers:quick_experiment"
SPILL_PROBE = "tests.campaign_helpers:spill_probe_experiment"


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "name": "cli-test",
        "entries": [{"experiment": QUICK, "seeds": [0, 1, 2, 3]}],
    }))
    return path


def run_cli(*args):
    return main(["campaign", *args])


class TestCampaignRun:
    def test_run_executes_and_exits_zero(self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert run_cli("run", str(spec_file), "--store", str(store),
                       "--jobs", "2") == 0
        out = capsys.readouterr().out
        assert "4 executed, 0 cached" in out
        assert "cli-test" in out

    def test_second_invocation_hits_cache(self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert run_cli("run", str(spec_file), "--store", str(store)) == 0
        capsys.readouterr()
        assert run_cli("run", str(spec_file), "--store", str(store)) == 0
        assert "0 executed, 4 cached" in capsys.readouterr().out

    def test_bad_spec_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "entries": []}))
        assert run_cli("run", str(bad)) == 2
        assert "error: bad spec" in capsys.readouterr().err

    def test_missing_spec_exits_two(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path / "absent.json")) == 2
        assert "error: bad spec" in capsys.readouterr().err

    def test_unknown_experiment_fails_runs_exit_one(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "nope",
            "entries": [{"experiment": "definitely-not-registered"}],
        }))
        assert run_cli("run", str(spec), "--store",
                       str(tmp_path / "s")) == 1
        assert "failed" in capsys.readouterr().out

    def test_failed_run_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "boom",
            "entries": [{
                "experiment": "tests.campaign_helpers:broken_experiment",
                "seeds": [0],
            }],
        }))
        assert run_cli("run", str(spec), "--store", str(tmp_path / "s"),
                       "--retries", "0") == 1

    def test_out_artifact_and_quiet(self, spec_file, tmp_path, capsys):
        out_json = tmp_path / "artifact.json"
        assert run_cli("run", str(spec_file), "--store",
                       str(tmp_path / "s"), "--quiet",
                       "--out", str(out_json)) == 0
        printed = capsys.readouterr().out
        assert "experiment | seed" not in printed  # table suppressed
        assert "4 executed" in printed             # summary line kept
        data = json.loads(out_json.read_text())
        assert data["counts"]["executed"] == 4
        assert {r["seed"] for r in data["runs"]} == {0, 1, 2, 3}

    def test_metrics_out_writes_obs_series(self, spec_file, tmp_path):
        metrics = tmp_path / "m.jsonl"
        assert run_cli("run", str(spec_file), "--store",
                       str(tmp_path / "s"), "--quiet",
                       "--metrics-out", str(metrics)) == 0
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert lines
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["scenario"] == "campaign:cli-test"

    def test_resume_without_journal_exits_two(self, spec_file, tmp_path,
                                              capsys):
        assert run_cli("run", str(spec_file), "--store",
                       str(tmp_path / "s"), "--resume") == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_continues_after_partial_store(self, spec_file, tmp_path,
                                                  capsys):
        store = tmp_path / "store"
        assert run_cli("run", str(spec_file), "--store", str(store)) == 0
        capsys.readouterr()
        assert run_cli("run", str(spec_file), "--store", str(store),
                       "--resume") == 0
        captured = capsys.readouterr()
        assert "resuming campaign" in captured.err
        assert "0 executed, 4 cached" in captured.out


class TestCampaignStatusClean:
    def test_status_empty_store(self, tmp_path, capsys):
        assert run_cli("status", "--store", str(tmp_path / "void")) == 0
        assert "no journalled campaigns" in capsys.readouterr().out

    def test_status_lists_campaigns(self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"
        run_cli("run", str(spec_file), "--store", str(store), "--quiet")
        capsys.readouterr()
        assert run_cli("status", "--store", str(store)) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out
        assert "complete" in out
        assert "4 cached objects" in out

    def test_status_follow_exits_when_terminal(self, spec_file, tmp_path,
                                               capsys):
        store = tmp_path / "store"
        run_cli("run", str(spec_file), "--store", str(store), "--quiet")
        capsys.readouterr()
        # every campaign is terminal, so --follow prints once and returns
        assert run_cli("status", "--store", str(store), "--follow",
                       "--interval", "0.01") == 0
        assert "complete" in capsys.readouterr().out

    def test_status_follow_rejects_bad_interval(self, tmp_path, capsys):
        assert run_cli("status", "--store", str(tmp_path / "s"),
                       "--follow", "--interval", "0") == 2
        assert "--interval" in capsys.readouterr().err

    def test_run_log_spill_flag_spills_run_logs(self, tmp_path, capsys,
                                                monkeypatch):
        import os

        from repro.telemetry.sink import SPILL_ENV_VAR

        monkeypatch.delenv(SPILL_ENV_VAR, raising=False)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "name": "spill-test",
            "entries": [{"experiment": SPILL_PROBE, "seeds": [0, 1, 2, 3]}],
        }))
        spill = tmp_path / "spill"
        for jobs in ("1", "2"):
            # the probe experiment fails unless the flag reaches every run
            # (in-process and in workers) via the environment ...
            assert run_cli("run", str(spec_file),
                           "--store", str(tmp_path / f"store{jobs}"),
                           "--jobs", jobs, "--quiet",
                           "--log-spill", str(spill)) == 0
            assert "4 executed" in capsys.readouterr().out
            # ... and the environment is restored once the command returns
            assert SPILL_ENV_VAR not in os.environ

    def test_clean_empties_store(self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"
        run_cli("run", str(spec_file), "--store", str(store), "--quiet")
        capsys.readouterr()
        assert run_cli("clean", "--store", str(store)) == 0
        assert "removed 4" in capsys.readouterr().out
        assert run_cli("status", "--store", str(store)) == 0
        assert "no journalled campaigns" in capsys.readouterr().out


class TestMainCliIntegration:
    def test_list_mentions_campaign(self, capsys):
        assert main(["list"]) == 0
        assert "campaign" in capsys.readouterr().out

    def test_fig9_accepts_jobs_flag(self, capsys):
        # tiny check that --jobs parses and threads through (not a perf test)
        assert main(["model", "--quiet", "--jobs", "1"]) == 0
