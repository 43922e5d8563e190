#!/usr/bin/env python
"""Observing a run: metrics, Chrome trace and run manifest for a flash crowd.

The ``repro.obs`` layer measures the *simulator itself* -- counters for
protocol hot spots, per-callback wall-time timers, a Chrome trace of the
event loop -- without touching the paper's telemetry pipeline
(``repro.telemetry``), which only ever sees parsed log strings like the
deployed system's collector did.

Everything activates ambiently: open an ``obs.session(...)`` and any
engine built inside it attaches automatically; no experiment code
changes.  Outside a session the engines run their original,
instrumentation-free hot loops.

Run:  python examples/observed_run.py
"""

import json
import tempfile
from pathlib import Path

import repro.obs as obs
from repro.core.config import SystemConfig
from repro.runtime import run_scenario
from repro.workload import flash_crowd_storm


def main() -> None:
    outdir = Path(tempfile.mkdtemp(prefix="repro_obs_"))
    metrics = outdir / "metrics.jsonl"
    trace = outdir / "trace.json"

    cfg = SystemConfig(n_servers=2)
    scenario = flash_crowd_storm(
        burst_users_per_s=1.0, horizon_s=300.0, n_servers=2, cfg=cfg
    )

    with obs.session(
        metrics_path=str(metrics),
        trace_path=str(trace),
        progress=True,          # heartbeat lines on stderr while it runs
        progress_interval_s=0.5,
        scenario="flash_crowd_example",
        seed=7,
    ) as ctx:
        res = run_scenario(scenario, seed=7)
        system, population = res.system, res.population
        snapshot = ctx.registry.snapshot()

    # --- what got written -------------------------------------------------
    manifest = json.loads((outdir / "metrics.manifest.json").read_text())
    n_lines = sum(1 for _ in metrics.open())
    n_spans = len(json.loads(trace.read_text())["traceEvents"])

    print("observed flash crowd (reference engine)")
    print(f"  sessions spawned     : {system.sessions_spawned}")
    print(f"  users ever playing   : {population.success_fraction() * 100:.0f}%")
    print()
    print("protocol hot-spot counters")
    for name in (
        "core.partnerships_formed", "core.parent_switches",
        "core.bm_exchanges", "core.gossip_messages",
        "engine.events_executed",
    ):
        print(f"  {name:28s}: {snapshot.get(name, 0)}")
    print()
    print("artefacts")
    print(f"  metrics time series  : {metrics} ({n_lines} snapshots)")
    print(f"  Chrome trace         : {trace} ({n_spans} events;"
          " open in chrome://tracing or ui.perfetto.dev)")
    print(f"  run manifest         : seed={manifest['seed']}"
          f" config_hash={manifest['config_hash']}"
          f" git_rev={str(manifest['git_rev'])[:12]}"
          f" wall={manifest['wall_time_s']:.1f}s")


if __name__ == "__main__":
    main()
