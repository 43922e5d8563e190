"""Tests for ``python -m repro profile`` (the cProfile hot-spot runner)."""

import cProfile
import json
import pstats

import pytest

import repro.obs as obs
from repro.core.config import SystemConfig
from repro.experiments.cli import main
from repro.experiments.profile import hotspot_table
from repro.runtime import build_backend, run_scenario
from repro.workload.scenarios import steady_audience

#: each vectorized engine's step phases, in execution order
FAST_PHASES = ["arrivals", "join", "rates", "heads", "playback", "ready",
               "adaptation", "departures", "reports"]
ODE_PHASES = ["forcing", "waterfill", "continuity", "transitions",
              "traffic", "departures", "reports"]


def _stats_of(fn):
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    return pstats.Stats(prof)


class TestHotspotTable:
    def test_formats_rows_and_total(self):
        stats = _stats_of(lambda: sum(i * i for i in range(1000)))
        table = hotspot_table(stats, top=5)
        lines = table.splitlines()
        assert "ncalls" in lines[0] and "callsite" in lines[0]
        assert "total internal time" in lines[-1]
        assert len(lines) <= 5 + 2  # header + top rows + footer

    def test_sort_keys(self):
        stats = _stats_of(lambda: [str(i) for i in range(100)])
        for sort in ("tottime", "cumtime", "ncalls"):
            assert "callsite" in hotspot_table(stats, sort=sort)

    def test_bad_sort_rejected(self):
        stats = _stats_of(lambda: None)
        with pytest.raises(ValueError):
            hotspot_table(stats, sort="percall")


class TestProfileCli:
    def test_unknown_experiment_is_usage_error(self, capsys):
        assert main(["profile", "not-an-experiment"]) == 2
        capsys.readouterr()

    def test_profiles_experiment_and_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "model.trace.json"
        stats = tmp_path / "model.pstats"
        rc = main(["profile", "model", "--quiet", "--top", "5",
                   "--trace-out", str(trace), "--stats-out", str(stats)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "callsite" in out
        assert "chrome trace written" in out
        payload = json.loads(trace.read_text())
        assert "traceEvents" in payload  # loadable by chrome://tracing
        pstats.Stats(str(stats))  # raw dump round-trips


def _phase_rows(out, prefix):
    """The phase column of the step-phase table printed for ``prefix``."""
    block = out.split(f"== step phases: {prefix}.* ")[1].splitlines()
    assert block[1].split() == ["phase", "seconds", "share"]
    rows = []
    for line in block[2:]:
        name = line.split()[0]
        if name == "total":
            return rows
        rows.append(name)
    raise AssertionError("phase table has no total row")


class TestStepPhaseTable:
    @pytest.mark.parametrize("engine,prefix,phases", [
        ("fast", "fastsim.phase", FAST_PHASES),
        ("ode", "ode.phase", ODE_PHASES),
    ])
    def test_profile_prints_phases_in_execution_order(
            self, engine, prefix, phases, tmp_path, capsys):
        rc = main(["profile", "fig6", "--engine", engine, "--quiet",
                   "--top", "3", "--trace-out", str(tmp_path / "t.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert _phase_rows(out, prefix) == phases
        assert out.count("== step phases:") == 1

    def test_ode_phase_timers_only_for_backends_in_a_session(self):
        cfg = SystemConfig().with_overrides(status_report_period_s=30.0)
        scenario = steady_audience(rate_per_s=0.3, horizon_s=150.0,
                                   n_servers=2, cfg=cfg)
        outside = build_backend(scenario, seed=0, engine="ode")
        with obs.session() as ctx:
            inside = run_scenario(scenario, seed=0, engine="ode").backend
            outside.run(scenario.horizon_s)
        timers = ctx.registry.timers()
        assert list(timers) == [f"ode.phase.{p}" for p in ODE_PHASES]
        # attached like the other engines: provenance and run.* gauges
        assert ctx.manifest.seed == 0 and ctx.manifest.config_hashes
        assert "run.live_peers" in ctx.gauge_providers
        assert all(t.count == inside.steps_run for t in timers.values())
        # the backend built outside the session stayed unattached, and
        # timing the phases changed nothing in the run itself
        assert outside.steps_run == inside.steps_run
        assert outside.log.dumps() == inside.log.dumps()
