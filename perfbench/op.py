"""One benchmark operation in a fresh interpreter.

``run.py`` starts this script once per operation::

    python perfbench/op.py --workload NAME --figure-seed N [--smoke]
        [--trace] [--work-dir DIR]
    python perfbench/op.py --workload NAME --setup [--smoke]

The first form calls the workload's figure function, then
``FigureResult.render()``, and prints one JSON line: the timed interval's
wall and CPU seconds, the process peak RSS, the output digest and counts,
and with ``--trace`` the layer ledger.  ``--setup`` imports
``repro.experiments`` and builds the workload's scenario, then exits; its
wall time, measured by the parent, is the set-up cost of a CLI call.

Only stdlib modules are imported before the timed work, so the set-up
probe pays for ``repro`` alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time  # repro: noqa[DET002] benchmark stopwatch

import workloads
from reference import digest


class _ScenarioBuilt(Exception):
    """Raised in place of running the scenario, once the figure built it."""


def setup_probe(workload: workloads.Workload, smoke: bool) -> None:
    """Import the experiments package and build the workload's scenario.

    The figure function builds the scenario itself; its ``run_scenario``
    binding is replaced by a stop, so the probe builds exactly the
    scenario the figure would run and nothing more.
    """
    import repro.experiments.figures as figures

    def stop(scenario, *args, **kwargs):
        raise _ScenarioBuilt

    figures.run_scenario = stop
    try:
        getattr(figures, workload.figure)(seed=0, **workload.arguments(smoke))
    except _ScenarioBuilt:
        return
    raise RuntimeError(f"{workload.figure} returned without running a scenario")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def operation(workload: workloads.Workload, figure_seed: int, *, smoke: bool,
              trace: bool, work_dir: Path) -> dict:
    """Run the figure pipeline once and return its measurements."""
    import repro.experiments.figures as figures
    import repro.runtime.driver as driver
    from repro.telemetry import sink

    ledger = None
    if trace:
        from tracer import Ledger, install

        ledger = Ledger()
        install(ledger, workload.engine)

    # keep a handle on the backend for the output counts; one extra call
    # per operation, identical with tracing on and off
    backends = []
    build_backend = driver.build_backend

    def capture(*args, **kwargs):
        backend = build_backend(*args, **kwargs)
        backends.append(backend)
        return backend

    driver.build_backend = capture

    figure = getattr(figures, workload.figure)
    kwargs = workload.arguments(smoke)
    with tempfile.TemporaryDirectory(prefix="spill-", dir=work_dir) as spill:
        if workload.spill:
            sink.set_spill_root(spill)
        t0 = perf_counter()  # repro: noqa[DET002] benchmark stopwatch
        c0 = process_time()  # repro: noqa[DET002] benchmark stopwatch
        result = figure(seed=figure_seed, **kwargs)
        text = result.render()
        cpu_s = process_time() - c0  # repro: noqa[DET002] benchmark stopwatch
        pipeline_s = perf_counter() - t0  # repro: noqa[DET002] benchmark stopwatch
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if len(backends) != 1:
            raise RuntimeError(f"expected one backend, the figure built {len(backends)}")
        backend = backends[0]
        log = backend.log
        kernel = getattr(getattr(backend, "system", None), "engine", None)
        out = {
            "figure_seed": figure_seed,
            "pipeline_s": pipeline_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "digest": digest(result.metrics),
            "metrics": result.metrics,
            "render_chars": len(text),
            "telemetry.lines": len(log),
            "telemetry.malformed": log.malformed_count,
            "sim.events": kernel.events_processed if kernel is not None else 0,
        }
        if ledger is not None:
            out["ledger"] = {
                "pipeline_s": pipeline_s,
                "covered_s": ledger.root_child_s(),
                "calls": dict(ledger.calls),
                "inclusive_s": dict(ledger.inclusive_s),
                "self_s": dict(ledger.self_s),
                # measured after the timed interval: one more pass over
                # the stored lines and the spill directory
                "telemetry.bytes": sum(len(e.to_line()) + 1
                                       for e in log.iter_entries()),
                "telemetry.spill_bytes": _dir_bytes(Path(spill)),
            }
        sink.set_spill_root(None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--figure-seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--work-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = workloads.get(args.workload)
    if args.setup:
        setup_probe(workload, args.smoke)
        return 0
    if args.work_dir is None:
        parser.error("--work-dir is required for an operation")
    out = operation(workload, args.figure_seed, smoke=args.smoke,
                    trace=args.trace, work_dir=args.work_dir)
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
