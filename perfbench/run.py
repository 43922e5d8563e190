"""The figure-pipeline benchmark: the measure of record for performance.

One run measures one workload (``workloads.py``) for ``--seconds``::

    python3 perfbench/run.py --workload fig6_flash_detailed --seed 0 \\
        --seconds 40 --trace 0

An operation calls the workload's figure function of
``repro.experiments.figures`` and then ``FigureResult.render()``, in a
fresh interpreter (``op.py``).  Operations run one at a time and cycle
through the figure seeds derived from ``--seed``.  Every operation's
output is checked against its committed reference (``reference.py``) and
against earlier operations on the same figure seed; an operation fails if
it raises or its output check fails.  The verdict line reads PASS, FAIL,
or UNVERIFIED with the reason (no reference for the seed, or a reference
recorded on a host whose fingerprint differs, field by field).

``--trace 0`` reports the end-to-end metrics, medians over the run:

* ``pipeline_s`` -- wall seconds from the figure call to the rendered
  result, what ``python -m repro fig6`` costs a user;
* ``cpu_s`` -- process user+sys CPU seconds over the same interval; a gap
  to ``pipeline_s`` is parallelism or I/O wait;
* ``setup_s`` -- wall seconds for a fresh interpreter to import
  ``repro.experiments`` and build the scenario, timed from outside; one
  probe runs before each operation;
* ``peak_rss_mb`` -- ``ru_maxrss`` of the operation's process.

``--trace 1`` runs pairs of operations on the same figure seed, one
untraced and one traced (``tracer.py``), and reports the per-layer
metrics of the traced ones (lower medians, so each is an observed value),
with the median traced-minus-untraced difference as ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every operation passed, 1 when one failed, 2 on a usage error or
when the checkout holds no ``src/repro``.

``--record`` runs each figure seed of ``--seed`` once and writes the
outputs into the workload's reference file instead of checking
them.  ``--smoke`` uses the tiny-horizon arguments of each workload.

The older ``benchmarks/BENCH_*.json`` files and scripts predate this
benchmark and are kept only until CI stops calling them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter  # repro: noqa[DET002] benchmark stopwatch
from typing import Dict, List, Optional, Tuple

import workloads
from reference import Reference, outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
DEFAULT_REFERENCES = HERE / "reference"

#: a single operation that takes longer than this is killed and failed,
#: which keeps a run of up to 50 s under three minutes
OP_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; computed from the traced operations.  Which
#: end-to-end metric each should move, and where:
#:   workload.*, runtime.build_s -- setup_s and pipeline_s, small everywhere;
#:   engine.*, sim.* -- pipeline_s and cpu_s; sim.* on fig6 only (0 elsewhere);
#:   network.fairshare_* -- pipeline_s, fig6 only;
#:   telemetry.ingest_*, telemetry.reports -- pipeline_s, fig5 far above others;
#:   telemetry.lines/bytes/malformed -- the output check, all workloads;
#:   telemetry.read_s, telemetry.decode_* -- pipeline_s and cpu_s, fig5 and
#:     fig8, about 1% on fig6;
#:   telemetry.flush_s, telemetry.spill_bytes -- the gap between pipeline_s and
#:     cpu_s, and peak_rss_mb, fig8 only;
#:   analysis.* -- pipeline_s, three log passes on fig8, one elsewhere;
#:   experiments.render_s -- pipeline_s, small everywhere;
#:   trace.* -- the tracing itself: unattributed time and overhead.
PER_LAYER_UNITS = {
    "workload.scenario_s": "s",
    "workload.sample_s": "s",
    "runtime.build_s": "s",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "network.fairshare_calls": "count",
    "network.fairshare_s": "s",
    "telemetry.reports": "count",
    "telemetry.ingest_s": "s",
    "telemetry.ingest_us_per_report": "us",
    "telemetry.lines": "count",
    "telemetry.bytes": "B",
    "telemetry.malformed": "count",
    "telemetry.read_s": "s",
    "telemetry.decode_calls": "count",
    "telemetry.decode_s": "s",
    "telemetry.decode_us_per_line": "us",
    "telemetry.flush_s": "s",
    "telemetry.spill_bytes": "B",
    "analysis.passes": "count",
    "analysis.self_s": "s",
    "experiments.render_s": "s",
    "trace.pipeline_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class Runner:
    """Starts set-up probes and operations, one process at a time."""

    def __init__(self, workload: workloads.Workload, smoke: bool, work_dir: Path) -> None:
        self.workload = workload
        self.smoke = smoke
        self.work_dir = work_dir
        self.env = _child_env()
        self.base = [sys.executable, str(HERE / "op.py"),
                     "--workload", workload.name] + (["--smoke"] if smoke else [])

    def _child(self, args: List[str]) -> Tuple[Optional[str], str]:
        """Run op.py to completion; (stdout, "") or (None, why it failed)."""
        try:
            proc = subprocess.run(self.base + args, env=self.env, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {OP_TIMEOUT_S:.0f} s"
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, f"exit {proc.returncode}: {tail[0]}"
        return proc.stdout, ""

    def setup_probe(self) -> Tuple[Optional[float], str]:
        """Wall seconds of one fresh-interpreter set-up, timed from here."""
        t0 = perf_counter()  # repro: noqa[DET002] benchmark stopwatch
        out, why = self._child(["--setup"])
        setup_s = perf_counter() - t0  # repro: noqa[DET002] benchmark stopwatch
        return (None if out is None else setup_s), why and f"set-up probe: {why}"

    def operation(self, figure_seed: int, trace: bool) -> Tuple[Optional[dict], str]:
        """One figure pipeline; (result, "") or (None, why it failed)."""
        args = ["--figure-seed", str(figure_seed), "--work-dir", str(self.work_dir)]
        out, why = self._child(args + (["--trace"] if trace else []))
        if out is None:
            return None, f"figure seed {figure_seed}: {why}"
        return json.loads(out.strip().splitlines()[-1]), ""


class Checker:
    """Checks each operation against the reference and the run's others."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.seen: Dict[int, dict] = {}
        self.matched = 0
        self.unverified: List[str] = []
        self.failures: List[str] = []

    def check(self, op: dict) -> bool:
        seed = op["figure_seed"]
        got = outcome(op)
        problems = []
        if op["telemetry.lines"] < 1:
            problems.append("empty log")
        if op["telemetry.malformed"] != 0:
            problems.append(f"{op['telemetry.malformed']} malformed log lines")
        if op["render_chars"] < 1 or not op["metrics"]:
            problems.append("empty figure")
        first = self.seen.setdefault(seed, got)
        if first != got:
            problems.append(f"output differs from an earlier operation on the "
                            f"same seed: {got} vs {first}")
        expected, missing = self.reference.expected(seed)
        if expected is None:
            self.unverified.append(missing)
        elif expected == got:
            self.matched += 1
        else:
            diff = self.reference.fingerprint_diff()
            if diff:
                self.unverified.append(
                    f"figure seed {seed} differs from the reference, which was "
                    f"recorded on another host: " + "; ".join(diff))
            else:
                problems.append(f"output {got} differs from reference {expected}")
        if problems:
            self.failures.append(f"figure seed {seed}: " + "; ".join(problems))
        return not problems

    def verdict(self, attempted: int) -> str:
        if self.failures:
            return "FAIL: " + " | ".join(dict.fromkeys(self.failures))
        diff = self.reference.fingerprint_diff()
        if self.unverified:
            return ("UNVERIFIED: " + " | ".join(dict.fromkeys(self.unverified))
                    + f" ({self.matched}/{attempted} operations matched the reference)")
        note = (" -- host fingerprint differs: " + "; ".join(diff)) if diff else ""
        return f"PASS: {self.matched}/{attempted} operations match the reference{note}"


def _layer_metrics(op: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced operation."""
    ledger = op["ledger"]
    calls, incl, self_s = ledger["calls"], ledger["inclusive_s"], ledger["self_s"]

    def get(table: dict, layer: str) -> float:
        return float(table.get(layer, 0))

    engine_run_s = get(incl, "engine")
    reports = get(calls, "telemetry.ingest")
    decodes = get(calls, "telemetry.decode")
    events = float(op["sim.events"])
    return {
        "workload.scenario_s": get(self_s, "workload.scenario"),
        "workload.sample_s": get(self_s, "workload.sample"),
        "runtime.build_s": get(self_s, "runtime.build"),
        "engine.run_s": engine_run_s,
        "engine.self_s": get(self_s, "engine"),
        "sim.events": events,
        "sim.events_per_s": events / engine_run_s if engine_run_s > 0 else 0.0,
        "network.fairshare_calls": get(calls, "network.fairshare"),
        "network.fairshare_s": get(incl, "network.fairshare"),
        "telemetry.reports": reports,
        "telemetry.ingest_s": get(self_s, "telemetry.ingest"),
        "telemetry.ingest_us_per_report":
            get(self_s, "telemetry.ingest") * 1e6 / reports if reports else 0.0,
        "telemetry.lines": float(op["telemetry.lines"]),
        "telemetry.bytes": float(ledger["telemetry.bytes"]),
        "telemetry.malformed": float(op["telemetry.malformed"]),
        "telemetry.read_s": get(self_s, "telemetry.read"),
        "telemetry.decode_calls": decodes,
        "telemetry.decode_s": get(self_s, "telemetry.decode"),
        "telemetry.decode_us_per_line":
            get(self_s, "telemetry.decode") * 1e6 / decodes if decodes else 0.0,
        "telemetry.flush_s": get(self_s, "telemetry.flush"),
        "telemetry.spill_bytes": float(ledger["telemetry.spill_bytes"]),
        "analysis.passes": get(calls, "telemetry.read"),
        "analysis.self_s": get(self_s, "analysis"),
        "experiments.render_s": get(self_s, "experiments.render"),
        "trace.pipeline_s": float(ledger["pipeline_s"]),
        "trace.unattributed_s": float(ledger["pipeline_s"] - ledger["covered_s"]),
    }


def measure(runner: Runner, seeds: List[int], seconds: float, trace: bool,
            checker: Checker) -> Tuple[int, int, Dict[str, float]]:
    """Run operations for ``seconds``; (attempted, failed, metrics)."""
    start = perf_counter()  # repro: noqa[DET002] benchmark stopwatch
    attempted = failed = 0
    ok_ops: List[dict] = []
    setups: List[float] = []
    pairs: List[Tuple[dict, dict]] = []

    def attempt(seed: int, traced: bool) -> Optional[dict]:
        nonlocal attempted, failed
        attempted += 1
        op, why = runner.operation(seed, traced)
        if why:
            checker.failures.append(why)
        if op is None or not checker.check(op):
            failed += 1
            return None
        return op

    rounds = 0
    while True:
        seed = seeds[rounds % len(seeds)]
        if trace:
            # alternate which side goes first, so drift cancels
            order = (False, True) if rounds % 2 == 0 else (True, False)
            done = {traced: attempt(seed, traced) for traced in order}
            if done[False] is not None and done[True] is not None:
                pairs.append((done[False], done[True]))
        else:
            setup_s, why = runner.setup_probe()
            if setup_s is None:
                checker.failures.append(why)
                attempted += 1
                failed += 1
            else:
                setups.append(setup_s)
                op = attempt(seed, False)
                if op is not None:
                    ok_ops.append(op)
        rounds += 1
        elapsed_s = perf_counter() - start  # repro: noqa[DET002] benchmark stopwatch
        # stop when one more round of the mean length would overrun
        if elapsed_s * (rounds + 1) / rounds > seconds:
            break

    metrics: Dict[str, float] = {}
    if pairs:
        per_op = [_layer_metrics(t) for _, t in pairs]
        for name in PER_LAYER_UNITS:
            if name != "trace.overhead_s":
                metrics[name] = statistics.median_low(m[name] for m in per_op)
        metrics["trace.overhead_s"] = statistics.median(
            t["pipeline_s"] - u["pipeline_s"] for u, t in pairs)
    if ok_ops:
        for name in ("pipeline_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(op[name] for op in ok_ops)
        metrics["setup_s"] = statistics.median(setups)
    return attempted, failed, metrics


def record(runner: Runner, seeds: List[int], reference: Reference) -> int:
    """Run each figure seed once and store its outcome as the reference."""
    outcomes = {}
    for seed in seeds:
        op, why = runner.operation(seed, False)
        if op is None:
            print(f"record failed: {why}", file=sys.stderr)
            return 1
        outcomes[seed] = outcome(op)
    reference.record(outcomes)
    print(f"recorded figure seeds {seeds[0]}..{seeds[-1]} into {reference.path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Figure-pipeline benchmark (one workload per run).")
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-horizon workload arguments")
    parser.add_argument("--reference-dir", type=Path, default=DEFAULT_REFERENCES,
                        help="directory of the per-workload reference files")
    parser.add_argument("--record", action="store_true",
                        help="write the outputs into the reference file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    workload = workloads.get(args.workload)
    seeds = workloads.figure_seeds(args.seed)
    key = workload.name + ("-smoke" if args.smoke else "")
    reference = Reference(args.reference_dir / f"{key}.json",
                          workload.arguments(args.smoke))

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        runner = Runner(workload, args.smoke, work_dir)
        if args.record:
            return record(runner, seeds, reference)
        checker = Checker(reference)
        attempted, failed, metrics = measure(
            runner, seeds, args.seconds, bool(args.trace), checker)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = failed == 0 and set(metrics) == set(units)
    print(f"workload {workload.name}  seed {args.seed}  figure seeds "
          f"{seeds[0]}..{seeds[-1]}  operations {attempted}  failed {failed}")
    print(f"scratch directory {work_dir.relative_to(ROOT)} removed")
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<32} {shown:>14} {unit}")
    print("output check: " + checker.verdict(attempted))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
