"""Command-line interface: the one front door of ``python -m repro``.

Usage::

    python -m repro list                 # every command
    python -m repro table1
    python -m repro fig3 [--seed 7]
    python -m repro fig9 --seed 1 --jobs 4    # parallel sweep points
    python -m repro all                  # everything (several minutes)
    python -m repro ablations            # design-choice ablations
    python -m repro fig5 --engine detailed    # override the engine
    python -m repro parity --scenario steady_audience   # cross-engine check
    python -m repro run --engine ode          # 1M users in seconds (repro.model.meanfield)
    python -m repro campaign run spec.json --jobs 4   # see repro.campaign
    python -m repro check src/                # determinism lint (repro.check)
    python -m repro profile fig3              # cProfile hot spots + Chrome trace
    python -m repro watch m.jsonl             # live view of a metrics feed

Every subcommand is one row of :data:`COMMANDS`: a name and the module
that implements it.  The module provides ``configure(parser)``, which
declares its flags on a subparser of the single parser tree, and
``run(args) -> int``.  Flags that several commands take (``--seed``,
``--engine``, the observability flags) are declared once in
:data:`SHARED_FLAGS` and picked by name with :func:`add_flags`.

Each figure command runs the corresponding experiment of
:data:`EXPERIMENTS` at the default benchmark scale and prints the
rendered tables/series.

``--engine NAME`` overrides the engine an experiment runs on; the
choices come from the backend registry
(:func:`repro.runtime.backends.available_engines`: the event-driven
``detailed`` engine, the fluid ``fast`` engine, the mean-field ``ode``
engine and the localhost-socket ``net`` deployment).  Each experiment
has a sensible default: protocol figures use the event-driven engine,
population-scale figures the fluid one.  Experiments that are
engine-specific (table1, model, convergence) ignore the flag.

Observability (figure commands)::

    python -m repro fig6 --metrics-out m.jsonl --trace-out t.json --progress

``--metrics-out`` streams registry snapshots as JSONL and writes a run
manifest sidecar (``m.manifest.json``: seed, config hash, git rev, wall
time, peak RSS); ``--trace-out`` writes Chrome ``trace_event`` JSON
loadable in Perfetto; ``--progress`` prints a heartbeat line to stderr.

``--rng-sanitize {strict,warn}`` turns on the seed-discipline sanitizer
(:mod:`repro.sim.rng`): named streams count their draws and undeclared
streams / out-of-owner draws surface as obs counters (strict mode
raises).  Equivalent to setting ``REPRO_RNG_SANITIZE``.

``--log-spill DIR`` makes every telemetry :class:`~repro.telemetry.server.
LogServer` spill its log lines to gzip-compressed chunks under ``DIR``
instead of keeping them in RAM (:mod:`repro.telemetry.sink`), bounding
log-side memory at production volumes.  Spilling only relocates storage;
figures and tables are byte-identical, so the flag never enters campaign
run keys.  Equivalent to setting ``REPRO_LOG_SPILL``.  Both variables
reach worker processes while the command runs and are restored when it
returns.

Exit codes, the same for every command: 0 success, 1 experiment or
backend-startup error (one-line message on stderr), 2 usage error
(unknown experiment name, bad flag), 130 interrupted.  :func:`main`
returns the code and never raises ``SystemExit``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import os
import sys
import time
from typing import Callable, Dict, Optional

import repro.obs as obs
from repro.campaign.registry import EXPERIMENTS, SWEEP_POINTS
from repro.experiments.ablations import (
    ablate_cooldown,
    ablate_delivery_mode,
    ablate_mcache_policy,
    ablate_offset_mode,
    ablate_parent_choice,
    ablate_substreams,
)
from repro.runtime.backends import BackendStartupError, available_engines
from repro.telemetry.sink import SPILL_ENV_VAR

__all__ = ["main", "COMMANDS", "EXPERIMENTS", "FIGURES", "ABLATIONS",
           "SHARED_FLAGS", "UsageError", "add_flags"]

ABLATIONS: Dict[str, Callable] = {
    "offset": ablate_offset_mode,
    "parent-choice": ablate_parent_choice,
    "mcache": ablate_mcache_policy,
    "cooldown": ablate_cooldown,
    "substreams": ablate_substreams,
    "delivery-mode": ablate_delivery_mode,
}

#: the experiments run as figure commands (and by ``all``, in this order)
FIGURES = tuple(name for name in EXPERIMENTS if name not in SWEEP_POINTS)

#: subcommand -> module providing ``configure(parser)`` and ``run(args)``;
#: ``list`` prints the keys in this order
COMMANDS: Dict[str, str] = {
    **dict.fromkeys(FIGURES, __name__),
    "ablations": __name__,
    "all": __name__,
    "campaign": "repro.campaign.cli",
    "parity": "repro.runtime.parity",
    "run": "repro.experiments.run_cli",
    "check": "repro.check.cli",
    "profile": "repro.experiments.profile",
    "watch": "repro.obs.watch",
    "list": __name__,
}

#: flags several commands take, declared once: dest -> ``add_argument``
#: keywords (the option is ``--dest`` with dashes); a command adjusts a
#: default with ``parser.set_defaults``
SHARED_FLAGS: Dict[str, dict] = {
    "seed": dict(type=int, default=0, help="root random seed (default 0)"),
    "engine": dict(default=None,
                   help="simulation engine (default %(default)s; None = "
                        "each experiment's documented default)"),
    "metrics_out": dict(metavar="PATH", default=None,
                        help="write a JSONL metrics time series (plus a "
                             "*.manifest.json run manifest sidecar); view "
                             "live with 'python -m repro watch PATH'"),
    "trace_out": dict(metavar="PATH", default=None,
                      help="write a Chrome trace_event JSON file "
                           "(open in chrome://tracing or Perfetto)"),
    "progress": dict(action="store_true",
                     help="print a periodic heartbeat line to stderr"),
    "rng_sanitize": dict(choices=("strict", "warn"), default=None,
                         metavar="MODE",
                         help="enable the RNG seed-discipline sanitizer "
                              "(strict raises on violations, warn records "
                              "them; equivalent to REPRO_RNG_SANITIZE)"),
    "log_spill": dict(metavar="DIR", default=None,
                      help="spill telemetry logs to gzip chunks under DIR "
                           "instead of holding them in memory (equivalent "
                           "to REPRO_LOG_SPILL; never affects results)"),
    "quiet": dict(action="store_true",
                  help="suppress rendered tables/series on stdout"),
}

#: shared flags that reach worker processes through the environment
_FLAG_ENV = {"rng_sanitize": "REPRO_RNG_SANITIZE", "log_spill": SPILL_ENV_VAR}


class UsageError(Exception):
    """A command rejected its parsed arguments (exit code 2)."""


def add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Declare the :data:`SHARED_FLAGS` ``names`` on ``parser``."""
    for name in names:
        kwargs = dict(SHARED_FLAGS[name])
        if name == "engine":
            kwargs["choices"] = available_engines()
        parser.add_argument("--" + name.replace("_", "-"), **kwargs)


# ---------------------------------------------------------------------------
# the figure commands, ``ablations``, ``all`` and ``list``
# ---------------------------------------------------------------------------
def configure(parser: argparse.ArgumentParser) -> None:
    add_flags(parser, "seed", "engine", "metrics_out", "trace_out",
              "progress", "rng_sanitize", "log_spill", "quiet")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep experiments "
                             "(fig9; default 1 = in-process)")


def run(args) -> int:
    name = args.command
    if name == "list":
        print("\n".join(COMMANDS))
        return 0
    if name == "all":
        todo = [(key, EXPERIMENTS[key]) for key in FIGURES]
    elif name == "ablations":
        todo = list(ABLATIONS.items())
    else:
        todo = [(name, EXPERIMENTS[name])]
    with _obs_session(args, scenario=name):
        for key, fn in todo:
            _run_one(key, fn, args.seed, jobs=args.jobs, engine=args.engine,
                     quiet=args.quiet)
    return 0


def _run_one(name: str, fn: Callable, seed: int, *, jobs: int = 1,
             engine: Optional[str] = None, quiet: bool = False) -> None:
    t0 = time.perf_counter()  # repro: noqa[DET002] CLI elapsed-time display only
    # pass each option only where the signature takes it (table1 takes
    # none; engine=None keeps the experiment's own default engine)
    params = inspect.signature(fn).parameters
    offered = {"seed": seed, "jobs": jobs, "engine": engine}
    result = fn(**{k: v for k, v in offered.items()
                   if k in params and v is not None})
    elapsed = time.perf_counter() - t0  # repro: noqa[DET002] CLI elapsed-time display only
    if not quiet:
        print(result.render())
        print(f"[{name}: {elapsed:.1f} s]")
        print()


def _obs_session(args, scenario: str):
    """The observability session for this invocation (a null context when
    no obs flag was given)."""
    if not (args.metrics_out or args.trace_out or args.progress):
        return contextlib.nullcontext()
    return obs.session(
        metrics_path=args.metrics_out,
        trace_path=args.trace_out,
        progress=args.progress,
        scenario=scenario,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# the front door
# ---------------------------------------------------------------------------
def _build_parser():
    """The parser tree: one subparser per :data:`COMMANDS` row."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the Coolstreaming "
                    "measurement study (ICPP 2007).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, module in COMMANDS.items():
        importlib.import_module(module).configure(commands.add_parser(name))
    return parser, commands


@contextlib.contextmanager
def _restored_environ():
    """Undo a command's environment writes once it returns; worker
    processes inherit them while it runs."""
    saved = dict(os.environ)
    try:
        yield
    finally:
        for key in set(os.environ) - set(saved):
            del os.environ[key]
        os.environ.update(saved)


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(f"error: unknown experiment {argv[0]!r}; "
              f"try 'python -m repro list'", file=sys.stderr)
        return 2
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (2)
        return int(exc.code or 0)
    with _restored_environ():
        for dest, var in _FLAG_ENV.items():
            if getattr(args, dest, None):
                os.environ[var] = getattr(args, dest)
        try:
            return importlib.import_module(COMMANDS[args.command]).run(args)
        except UsageError as exc:
            with contextlib.suppress(SystemExit):
                commands.choices[args.command].error(str(exc))
            return 2
        except KeyboardInterrupt:
            print("error: interrupted", file=sys.stderr)
            return 130
        except BackendStartupError as exc:
            print(f"error: backend startup: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:
            label = getattr(args, "experiment", args.command)
            print(f"error: {label}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 1
