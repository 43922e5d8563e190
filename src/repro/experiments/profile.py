"""``python -m repro profile`` -- run an experiment under cProfile.

Perf work on this codebase starts from data, not guesses: this subcommand
runs any registered experiment under :mod:`cProfile`, prints a per-callsite
hot-spot table (sorted by internal time by default), and writes a Chrome
``trace_event`` file through the :mod:`repro.obs` trace exporter so the
same run can be opened in ``chrome://tracing`` / Perfetto.

Usage::

    python -m repro profile fig3
    python -m repro profile fig6 --seed 3 --top 40 --sort cumtime
    python -m repro profile fig5 --trace-out fig5.trace.json --stats-out p.pstats
    python -m repro profile fig9 --engine fast     # + per-step-phase table

``--engine`` overrides the experiment's engine, exactly as for the plain
subcommands, and takes the same choices.  ``--trace-out`` defaults to
``profile_<experiment>.trace.json``.  The run happens inside a
:mod:`repro.obs` session, so the vectorized engines (``fast``, ``ode``)
write each step phase's wall time into registry timers
(``fastsim.phase.<phase>``, ``ode.phase.<phase>``); after the hot spots
the command prints those timers as a per-step-phase table, phases in
execution order -- the engine-semantics view
(arrivals/join/rates/heads/...) that cProfile's per-function ranking
cannot give, and the tool that explains non-monotonic peer-steps/s in
BENCH_scale.json.

The hot-spot table reports, per call site (``file:line(function)``):
call count, total internal time, per-call internal time, cumulative time
and the share of overall internal time.  ``--stats-out`` additionally
dumps the raw :mod:`pstats` data for ``snakeviz``-style tooling.

Note that cProfile instruments every Python call, which inflates
call-heavy code paths relative to real time; treat the table as a ranking,
not a stopwatch.  The Chrome trace is recorded by the engine's observed
loop and reflects real (uninstrumented-loop + profiler) wall time per
event callback.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict

import repro.obs as obs
from repro.experiments.cli import EXPERIMENTS, FIGURES, _run_one, add_flags

__all__ = ["configure", "run", "hotspot_table", "phase_table",
           "step_phase_totals"]


def step_phase_totals(registry) -> Dict[str, Dict[str, float]]:
    """``{timer prefix: {phase: seconds}}`` from the step-phase timers
    (``<engine>.phase.<phase>``) in ``registry``, phases in registration
    order, which is the step's execution order."""
    tables: Dict[str, Dict[str, float]] = {}
    for name, timer in registry.timers().items():
        head, sep, phase = name.partition(".phase.")
        if sep:
            tables.setdefault(f"{head}.phase", {})[phase] = timer.total_s
    return tables


def phase_table(totals: Dict[str, float]) -> str:
    """Format a per-step-phase wall-time breakdown (rows in dict order)."""
    total = sum(totals.values())
    lines = [f"{'phase':<14}{'seconds':>10}  {'share':>6}"]
    for name, sec in totals.items():
        share = 100.0 * sec / total if total else 0.0
        lines.append(f"{name:<14}{sec:>10.3f}  {share:>5.1f}%")
    lines.append(f"{'total':<14}{total:>10.3f}")
    return "\n".join(lines)

_SORTS = ("tottime", "cumtime", "ncalls")


def hotspot_table(stats: pstats.Stats, *, top: int = 25,
                  sort: str = "tottime") -> str:
    """Format profile data as a per-callsite hot-spot table."""
    if sort not in _SORTS:
        raise ValueError(f"sort must be one of {_SORTS} (got {sort!r})")
    rows = []
    total_tt = 0.0
    for (filename, line, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        total_tt += tt
        short = filename
        for marker in ("/site-packages/", "/src/"):
            pos = filename.rfind(marker)
            if pos >= 0:
                short = filename[pos + len(marker):]
                break
        rows.append((nc, tt, ct, f"{short}:{line}({func})"))
    key = {"tottime": lambda r: r[1], "cumtime": lambda r: r[2],
           "ncalls": lambda r: r[0]}[sort]
    rows.sort(key=key, reverse=True)
    lines = [
        f"{'ncalls':>10}  {'tottime':>9}  {'percall':>9}  {'cumtime':>9}"
        f"  {'tot%':>5}  callsite",
    ]
    for nc, tt, ct, site in rows[:top]:
        percall = tt / nc if nc else 0.0
        share = 100.0 * tt / total_tt if total_tt else 0.0
        lines.append(
            f"{nc:>10d}  {tt:>9.3f}  {percall:>9.6f}  {ct:>9.3f}"
            f"  {share:>4.1f}%  {site}"
        )
    lines.append(f"-- {len(rows)} call sites, "
                 f"{total_tt:.3f} s total internal time --")
    return "\n".join(lines)


def configure(parser) -> None:
    parser.description = ("Run an experiment under cProfile: print a "
                          "hot-spot table and write a Chrome trace "
                          "(repro.obs exporter).")
    parser.add_argument("experiment", choices=sorted(FIGURES),
                        help="experiment to profile")
    add_flags(parser, "seed", "engine", "trace_out", "quiet")
    parser.add_argument("--top", type=int, default=25,
                        help="rows in the hot-spot table (default 25)")
    parser.add_argument("--sort", choices=_SORTS, default="tottime",
                        help="hot-spot table sort key (default tottime)")
    parser.add_argument("--stats-out", metavar="PATH", default=None,
                        help="also dump raw pstats data to PATH")


def run(args) -> int:
    trace_path = args.trace_out or f"profile_{args.experiment}.trace.json"
    profiler = cProfile.Profile()
    with obs.session(trace_path=trace_path, scenario=args.experiment,
                     seed=args.seed) as ctx:
        profiler.enable()
        try:
            _run_one(args.experiment, EXPERIMENTS[args.experiment],
                     args.seed, engine=args.engine, quiet=True)
        finally:
            profiler.disable()

    stats = pstats.Stats(profiler)
    if args.stats_out:
        stats.dump_stats(args.stats_out)
    if not args.quiet:
        print(f"== hot spots: {args.experiment} (seed {args.seed}, "
              f"sorted by {args.sort}) ==")
    print(hotspot_table(stats, top=args.top, sort=args.sort))
    for prefix, totals in step_phase_totals(ctx.registry).items():
        print()
        print(f"== step phases: {prefix}.* "
              f"(real wall time inside step(), cProfile overhead "
              f"included) ==")
        print(phase_table(totals))
    print(f"[chrome trace written to {trace_path}]")
    return 0
