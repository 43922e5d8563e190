"""Tests for the CLI and the ablation helpers."""

import json


from repro.experiments.cli import (
    ABLATIONS,
    COMMANDS,
    EXPERIMENTS,
    FIGURES,
    main,
)
from repro.experiments.ablations import run_variant
from repro.core.config import SystemConfig


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["figure99"]) == 2

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "768 kbps" in out

    def test_registry_covers_every_figure(self):
        for fig in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "fig9", "fig10", "table1", "model", "convergence"):
            assert fig in EXPERIMENTS

    def test_ablation_registry(self):
        assert set(ABLATIONS) == {
            "offset", "parent-choice", "mcache", "cooldown", "substreams",
            "delivery-mode",
        }

    def test_unknown_experiment_prints_one_line_error(self, capsys):
        assert main(["figure99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_experiment_exception_exits_one_without_traceback(
            self, capsys, monkeypatch):
        def boom(seed):
            raise RuntimeError("synthetic failure")
        monkeypatch.setitem(EXPERIMENTS, "boom", boom)
        monkeypatch.setitem(COMMANDS, "boom", "repro.experiments.cli")
        assert main(["boom"]) == 1
        err = capsys.readouterr().err
        assert "error: boom: RuntimeError: synthetic failure" in err
        assert "Traceback" not in err

    def test_quiet_suppresses_tables(self, capsys):
        assert main(["table1", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_metrics_out_writes_series_and_manifest(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        assert main(["table1", "--quiet",
                     "--metrics-out", str(metrics), "--seed", "3"]) == 0
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert lines  # at least the final snapshot
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["scenario"] == "table1"
        assert manifest["seed"] == 3

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(["model", "--quiet", "--trace-out", str(trace)]) == 0
        data = json.loads(trace.read_text())
        assert "traceEvents" in data


class TestRunVariant:
    def test_metrics_schema(self):
        cfg = SystemConfig(n_servers=2)
        out = run_variant(cfg, seed=0, burst_users_per_s=0.5, horizon_s=400.0)
        assert set(out) == {
            "sessions", "success_fraction", "continuity", "adaptations",
            "ready_median_s", "ready_p90_s",
        }
        assert out["sessions"] > 0

    def test_matched_seeds_identical_baseline(self):
        """Two runs of the same variant are bit-identical (the property
        the ablation comparisons rely on)."""
        cfg = SystemConfig(n_servers=2)
        a = run_variant(cfg, seed=5, burst_users_per_s=0.5, horizon_s=400.0)
        b = run_variant(cfg, seed=5, burst_users_per_s=0.5, horizon_s=400.0)
        assert a == b

    def test_variant_flag_actually_changes_behaviour(self):
        base = SystemConfig(n_servers=2)
        a = run_variant(base, seed=5, burst_users_per_s=0.8, horizon_s=400.0)
        b = run_variant(
            base.with_overrides(initial_offset_mode="oldest"),
            seed=5, burst_users_per_s=0.8, horizon_s=400.0,
        )
        assert a != b
