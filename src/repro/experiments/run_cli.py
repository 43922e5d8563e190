"""``python -m repro run``: one scenario, one engine, straight numbers.

The figure commands wrap scenarios in paper-shaped post-processing; this
subcommand is the raw entry point -- build an audience of ``--users``
over ``--horizon`` seconds (or take a named preset), run it on
``--engine``, and print wall time plus the engine's snapshot and the
paper-level metrics from its log.  Its reason to exist is the scale
ceiling: with ``--engine ode`` the mean-field backend turns a 1M-user
Fig. 9 point from an overnight job into seconds::

    python -m repro run --engine ode                  # 1M users, 300 s
    python -m repro run --engine fast --users 50000
    python -m repro run --scenario flash_crowd_storm --engine fast

Exit codes follow the repo convention (see :mod:`repro.experiments.cli`):
0 success, 1 engine/backend error, 2 usage error, 130 interrupted.
"""

from __future__ import annotations

import sys
import time

from repro.experiments.cli import UsageError, add_flags

__all__ = ["configure", "run"]


def _build_scenario(args):
    """The scenario to run, or ``None`` for an unknown preset name."""
    from repro.runtime.parity import _preset_scenarios
    from repro.workload.scenarios import steady_audience

    if args.scenario is not None:
        factory = _preset_scenarios().get(args.scenario)
        return factory() if factory is not None else None
    rate = args.users / args.horizon
    return steady_audience(
        rate_per_s=rate, horizon_s=args.horizon, n_servers=args.servers)


def configure(parser) -> None:
    parser.description = ("Run one scenario on one engine and print the "
                          "population metrics (defaults sized for the "
                          "1M-user mean-field demonstration).")
    add_flags(parser, "engine", "seed")
    parser.set_defaults(engine="ode")
    parser.add_argument("--users", type=int, default=1_000_000,
                        help="expected audience size for the synthetic "
                             "steady scenario (default 1000000)")
    parser.add_argument("--horizon", type=float, default=300.0,
                        help="virtual horizon in seconds (default 300)")
    parser.add_argument("--servers", type=int, default=24,
                        help="dedicated servers (default 24, the "
                             "deployment's count)")
    parser.add_argument("--scenario", default=None,
                        help="named preset instead of the synthetic "
                             "steady audience (one of the parity presets)")


def run(args) -> int:
    if args.users < 1 or args.horizon <= 0 or args.servers < 0:
        raise UsageError("--users/--horizon/--servers out of range")

    from repro.runtime.driver import run_scenario
    from repro.runtime.parity import paper_metrics

    scenario = _build_scenario(args)
    if scenario is None:
        print(f"run: unknown scenario {args.scenario!r}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()  # repro: noqa[DET002] CLI elapsed-time display only
    result = run_scenario(scenario, seed=args.seed, engine=args.engine)
    wall = time.perf_counter() - t0  # repro: noqa[DET002] CLI elapsed-time display only
    print(f"run: {scenario.name} engine={args.engine} seed={args.seed} "
          f"horizon={scenario.horizon_s:.0f}s wall={wall:.2f}s")
    snap = result.metrics()
    print("engine snapshot:")
    for key in sorted(snap):
        print(f"  {key:<24}{snap[key]:>14.4f}")
    pm = paper_metrics(result.log, scenario.horizon_s)
    print("paper metrics (from telemetry log):")
    for key in sorted(pm):
        print(f"  {key:<24}{pm[key]:>14.4f}")
    panel = snap.get("panel_weight")
    if panel is not None and panel > 1.0:
        print(f"  (log is a {snap['panel_users']:.0f}-user characteristic "
              f"panel, weight {panel:.1f}; snapshot numbers are "
              f"population-exact)")
    return 0
