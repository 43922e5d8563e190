"""Parallel campaign executor.

Schedules a :class:`~repro.campaign.spec.CampaignSpec`'s runs onto a
``ProcessPoolExecutor`` (``jobs=1`` short-circuits to in-process
execution — the reference path parallel runs must be bit-identical to).
Features:

* **content-addressed caching** — runs whose key already exists in the
  :class:`~repro.campaign.store.ResultStore` are returned without
  executing anything (``force=True`` bypasses);
* **per-run timeout** via ``SIGALRM`` inside the worker (POSIX; no-op
  where unavailable);
* **bounded retry with exponential backoff** for *transient* failures
  (classified by exception type name, so OS-level hiccups retry while a
  deterministic ``ValueError`` fails fast);
* **crash-safe journal** — every start/done/failed/cached transition is
  fsync'd, so an interrupted campaign resumes from exactly the completed
  set;
* **graceful Ctrl-C draining** — stop submitting, let in-flight runs
  finish, journal the interruption, return a partial report.

Workers resolve the experiment by name through
:mod:`repro.campaign.registry` and call the very same figure function the
sequential path calls, with the same seed — RngHub seeding is therefore
identical and per-run metrics are bit-identical across ``--jobs`` values.
"""

from __future__ import annotations

import os
import platform
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import multiprocessing

import repro.obs as obs
from repro.campaign.registry import resolve_experiment
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.campaign.store import ResultStore
from repro.telemetry.sink import SPILL_ENV_VAR

__all__ = [
    "DEFAULT_TRANSIENT",
    "RunTimeout",
    "RunResult",
    "CampaignReport",
    "run_campaign",
]

# exception type names (anywhere in the MRO) treated as transient, i.e.
# worth a bounded retry with backoff
DEFAULT_TRANSIENT: Tuple[str, ...] = (
    "OSError", "ConnectionError", "MemoryError", "BrokenProcessPool",
    "TransientRunError",
)


class RunTimeout(Exception):
    """A run exceeded its per-run wall-clock budget (not transient:
    re-running the same deterministic run would time out again)."""


@dataclass
class RunResult:
    """Outcome of one campaign run."""

    spec: RunSpec
    status: str  # "done" | "cached" | "failed"
    payload: Optional[Dict[str, Any]] = None
    attempts: int = 1
    wall_time_s: float = 0.0
    error: Optional[str] = None

    @property
    def metrics(self) -> Dict[str, float]:
        """The run's metric dict ({} when failed)."""
        if not self.payload:
            return {}
        return dict(self.payload.get("metrics", {}))


@dataclass
class CampaignReport:
    """Everything a finished (or interrupted) campaign produced."""

    spec: CampaignSpec
    results: List[RunResult] = field(default_factory=list)
    wall_time_s: float = 0.0
    jobs: int = 1
    interrupted: bool = False

    def _count(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def executed(self) -> int:
        """Runs actually executed this invocation."""
        return self._count("done")

    @property
    def cached(self) -> int:
        """Runs satisfied from the result store."""
        return self._count("cached")

    @property
    def failed(self) -> int:
        """Runs that exhausted their retries (or failed fatally)."""
        return self._count("failed")

    @property
    def ok(self) -> bool:
        """Campaign fully succeeded (nothing failed, nothing skipped)."""
        return (not self.interrupted and self.failed == 0
                and len(self.results) == len(self.spec.runs))

    def summary_line(self) -> str:
        """One-line outcome, e.g. for the CLI and heartbeats."""
        return (f"campaign {self.spec.name}: {len(self.spec.runs)} runs: "
                f"{self.executed} executed, {self.cached} cached, "
                f"{self.failed} failed in {self.wall_time_s:.1f}s "
                f"(jobs={self.jobs})"
                + (" [interrupted]" if self.interrupted else ""))


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _worker_init() -> None:
    """Pool initializer: forked workers inherit the parent's ambient obs
    session, whose registry describes the *parent* process — clear it so
    worker runs neither double-count nor race the parent's exporters."""
    obs.deactivate()


@contextmanager
def _alarm(timeout_s: Optional[float]):
    """Raise :class:`RunTimeout` after ``timeout_s`` wall seconds
    (SIGALRM; silently a no-op off the main thread or off POSIX)."""
    usable = (
        timeout_s is not None and timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {timeout_s:g}s")

    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _payload_from(result: Any) -> Dict[str, Any]:
    """Serialise an experiment's return value into the stored payload."""
    to_dict = getattr(result, "to_dict", None)
    if callable(to_dict):
        payload = dict(to_dict())
        blocks = getattr(result, "blocks", None)
        if blocks:
            payload["blocks"] = list(blocks)
        payload["metrics"] = {
            k: float(v) for k, v in payload.get("metrics", {}).items()
        }
        return payload
    if isinstance(result, Mapping) and "metrics" in result:
        return dict(result)
    raise TypeError(
        f"experiment returned {type(result).__name__}; expected a "
        f"FigureResult (or a mapping with a 'metrics' key)"
    )


def _execute_run(
    experiment: str, seed: int, overrides: Mapping[str, Any],
    timeout_s: Optional[float],
) -> Dict[str, Any]:
    """Run one experiment (in a worker or, for jobs=1, in-process) and
    return an outcome dict — exceptions are captured, never propagated, so
    the scheduling loop owns the retry decision."""
    t0 = perf_counter()  # repro: noqa[DET002] orchestration wall time, not simulation state
    try:
        fn = resolve_experiment(experiment)
        with _alarm(timeout_s):
            result = fn(seed=int(seed), **dict(overrides))
        # timing stays OUT of the payload: the stored object is a pure
        # function of (experiment, overrides, seed, code), byte-identical
        # across runs and worker counts; wall time goes in the sidecar
        return {"ok": True, "payload": _payload_from(result),
                "wall_time_s": perf_counter() - t0}  # repro: noqa[DET002] orchestration wall time, not simulation state
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "error_types": [c.__name__ for c in type(exc).__mro__],
            "wall_time_s": perf_counter() - t0,  # repro: noqa[DET002] orchestration wall time, not simulation state
        }


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------
class _Heartbeat:
    """Wall-clock-throttled progress line + obs counter bridge."""

    def __init__(self, spec: CampaignSpec, total: int, *, enabled: bool,
                 interval_s: float, stream) -> None:
        self._spec = spec
        self._total = total
        self._enabled = enabled
        self._interval = interval_s
        self._stream = stream
        self._t0 = perf_counter()  # repro: noqa[DET002] progress heartbeat pacing
        self._t_last = self._t0

    def tick(self, *, done: int, cached: int, failed: int, running: int,
             force: bool = False) -> None:
        now = perf_counter()  # repro: noqa[DET002] progress heartbeat pacing
        finished = done + cached + failed
        ctx = obs.current()
        if ctx is not None:
            obs.set_gauge("campaign.runs_total", float(self._total))
            obs.set_gauge("campaign.runs_done", float(done))
            obs.set_gauge("campaign.runs_cached", float(cached))
            obs.set_gauge("campaign.runs_failed", float(failed))
            obs.set_gauge("campaign.runs_in_flight", float(running))
            if ctx.progress is not None:
                # drives the JSONL metrics time series of an obs session
                ctx.progress.maybe_beat(now - self._t0, finished, "runs")
        if not self._enabled:
            return
        if not force and now - self._t_last < self._interval:
            return
        self._t_last = now
        self._stream.write(
            f"[campaign] {self._spec.name}: {finished}/{self._total} "
            f"({done} run, {cached} cached, {failed} failed, "
            f"{running} in flight) elapsed={now - self._t0:.1f}s\n"
        )
        self._stream.flush()


def _is_transient(error_types: Sequence[str],
                  transient: Sequence[str]) -> bool:
    return bool(set(error_types) & set(transient))


def run_campaign(
    spec: CampaignSpec,
    store: Optional[ResultStore] = None,
    *,
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 2,
    backoff_s: float = 0.5,
    force: bool = False,
    progress: bool = False,
    heartbeat_s: float = 5.0,
    stream=None,
    transient: Sequence[str] = DEFAULT_TRANSIENT,
) -> CampaignReport:
    """Execute every run of ``spec``; returns a :class:`CampaignReport`.

    ``jobs=None`` uses ``os.cpu_count()``; ``jobs=1`` executes in-process
    (no pool) — the reference against which parallel runs are
    bit-identical.  With a ``store``, completed runs are served from the
    content-addressed cache (unless ``force``) and every transition is
    journalled, so re-invoking after a crash executes only missing runs.
    """
    jobs = max(1, int(jobs if jobs is not None else (os.cpu_count() or 1)))
    stream = stream if stream is not None else sys.stderr
    t0 = perf_counter()  # repro: noqa[DET002] campaign wall time, excluded from run keys
    results: Dict[str, RunResult] = {}

    def journal(event: str, run: Optional[RunSpec] = None, **fields) -> None:
        if store is None:
            return
        rec: Dict[str, Any] = {
            "campaign": spec.campaign_key, "name": spec.name,
        }
        if run is not None:
            rec.update(run=run.key, experiment=run.experiment, seed=run.seed)
        rec.update(fields)
        store.journal(event, **rec)

    def sidecar(run: RunSpec, attempts: int, wall_s: float) -> Dict[str, Any]:
        return {
            "experiment": run.experiment,
            "seed": run.seed,
            "overrides": dict(run.overrides),
            "key": run.key,
            "campaign": spec.campaign_key,
            "campaign_name": spec.name,
            "code_version": spec.code_version,
            "attempts": attempts,
            "wall_time_s": wall_s,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "written_at_unix": time.time(),  # repro: noqa[DET002] journal metadata, excluded from run keys
        }

    # --- phase 1: serve what the cache already has ------------------------
    pending: List[RunSpec] = []
    for run in spec.runs:
        payload = None if (store is None or force) else store.get(run.key)
        if payload is not None:
            results[run.key] = RunResult(
                spec=run, status="cached", payload=payload, attempts=0,
                wall_time_s=0.0,
            )
            journal("cached", run)
        else:
            pending.append(run)

    journal("campaign-start", jobs=jobs, total=len(spec.runs),
            cached=len(spec.runs) - len(pending))
    beat = _Heartbeat(spec, len(spec.runs), enabled=progress,
                      interval_s=heartbeat_s, stream=stream)

    def counts() -> Dict[str, int]:
        out = {"done": 0, "cached": 0, "failed": 0}
        for r in results.values():
            out[r.status] += 1
        return out

    def record_done(run: RunSpec, payload: Dict[str, Any],
                    attempts: int, wall: float) -> None:
        results[run.key] = RunResult(
            spec=run, status="done", payload=payload, attempts=attempts,
            wall_time_s=wall,
        )
        if store is not None:
            store.put(run.key, payload, sidecar(run, attempts, wall))
        journal("done", run, attempt=attempts, wall_time_s=wall)
        obs.inc("campaign.runs_completed")

    def record_failed(run: RunSpec, outcome: Dict[str, Any],
                      attempts: int) -> None:
        results[run.key] = RunResult(
            spec=run, status="failed", payload=None, attempts=attempts,
            wall_time_s=float(outcome.get("wall_time_s", 0.0)),
            error=outcome.get("error"),
        )
        journal("failed", run, attempt=attempts, error=outcome.get("error"))
        obs.inc("campaign.runs_failed")

    interrupted = False
    # before any worker forks: the spill root rides the environment into
    # every run (storage-only — never part of a run key); restored after
    prior_spill = os.environ.get(SPILL_ENV_VAR)
    if spec.log_spill:
        os.environ[SPILL_ENV_VAR] = spec.log_spill
    try:
        if jobs == 1:
            _run_inprocess(pending, results, journal, record_done,
                           record_failed, beat, counts, timeout_s=timeout_s,
                           retries=retries, backoff_s=backoff_s,
                           transient=transient)
        else:
            _run_pooled(pending, results, journal, record_done,
                        record_failed, beat, counts, jobs=jobs,
                        timeout_s=timeout_s, retries=retries,
                        backoff_s=backoff_s, transient=transient)
    except KeyboardInterrupt:
        interrupted = True
        journal("interrupted", completed=len(results))
        if progress:
            stream.write(f"[campaign] {spec.name}: interrupted — "
                         f"{len(results)}/{len(spec.runs)} settled\n")
            stream.flush()
    finally:
        if prior_spill is None:
            os.environ.pop(SPILL_ENV_VAR, None)
        else:
            os.environ[SPILL_ENV_VAR] = prior_spill

    c = counts()
    beat.tick(done=c["done"], cached=c["cached"], failed=c["failed"],
              running=0, force=True)
    journal("campaign-end", executed=c["done"], cached=c["cached"],
            failed=c["failed"], interrupted=interrupted)
    report = CampaignReport(
        spec=spec,
        results=[results[r.key] for r in spec.runs if r.key in results],
        wall_time_s=perf_counter() - t0,  # repro: noqa[DET002] campaign wall time, excluded from run keys
        jobs=jobs,
        interrupted=interrupted,
    )
    return report


def _run_inprocess(pending, results, journal, record_done, record_failed,
                   beat, counts, *, timeout_s, retries, backoff_s,
                   transient) -> None:
    """The jobs=1 path: same semantics, no pool, no pickling."""
    for run in pending:
        attempts = 0
        while True:
            attempts += 1
            journal("start", run, attempt=attempts)
            outcome = _execute_run(run.experiment, run.seed, run.overrides,
                                   timeout_s)
            if outcome["ok"]:
                record_done(run, outcome["payload"], attempts,
                            float(outcome.get("wall_time_s", 0.0)))
                break
            if (attempts <= retries
                    and _is_transient(outcome.get("error_types", ()),
                                      transient)):
                journal("retry", run, attempt=attempts,
                        error=outcome.get("error"))
                time.sleep(backoff_s * (2 ** (attempts - 1)))
                continue
            record_failed(run, outcome, attempts)
            break
        c = counts()
        beat.tick(done=c["done"], cached=c["cached"], failed=c["failed"],
                  running=0)


def _run_pooled(pending, results, journal, record_done, record_failed,
                beat, counts, *, jobs, timeout_s, retries, backoff_s,
                transient) -> None:
    """The jobs>1 path: ProcessPoolExecutor with retry/backoff queue.

    A broken pool (a worker died hard, e.g. OOM-killed) is rebuilt and the
    in-flight runs are recycled through the transient-retry path.
    """
    # fork keeps worker start cheap and inherits sys.path/imports; fall
    # back to the platform default elsewhere
    if "fork" in multiprocessing.get_all_start_methods():
        mp_ctx = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-POSIX
        mp_ctx = multiprocessing.get_context()

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=jobs, mp_context=mp_ctx,
                                   initializer=_worker_init)

    pool = make_pool()
    queue = deque(pending)
    in_flight: Dict[Future, Tuple[RunSpec, int]] = {}
    retry_q: List[Tuple[float, RunSpec, int]] = []  # (due, run, prior tries)

    def submit(run: RunSpec, prior_attempts: int) -> None:
        journal("start", run, attempt=prior_attempts + 1)
        fut = pool.submit(_execute_run, run.experiment, run.seed,
                          dict(run.overrides), timeout_s)
        in_flight[fut] = (run, prior_attempts)

    def handle_failure(run: RunSpec, outcome: Dict[str, Any],
                       attempts: int) -> None:
        if (attempts <= retries
                and _is_transient(outcome.get("error_types", ()), transient)):
            journal("retry", run, attempt=attempts,
                    error=outcome.get("error"))
            due = perf_counter() + backoff_s * (2 ** (attempts - 1))  # repro: noqa[DET002] retry backoff deadline, host-time by design
            retry_q.append((due, run, attempts))
        else:
            record_failed(run, outcome, attempts)

    try:
        while queue or in_flight or retry_q:
            now = perf_counter()  # repro: noqa[DET002] retry backoff deadline, host-time by design
            if retry_q:
                due_now = [item for item in retry_q if item[0] <= now]
                retry_q[:] = [item for item in retry_q if item[0] > now]
                for _, run, prior in due_now:
                    submit(run, prior)
            while queue and len(in_flight) < jobs:
                submit(queue.popleft(), 0)
            if not in_flight:
                # only backoff timers outstanding
                next_due = min(item[0] for item in retry_q)
                time.sleep(max(0.0, min(0.5, next_due - perf_counter())))  # repro: noqa[DET002] retry backoff deadline, host-time by design
                continue
            done_set, _ = wait(set(in_flight), timeout=0.5,
                               return_when=FIRST_COMPLETED)
            pool_broken = False
            for fut in done_set:
                run, prior = in_flight.pop(fut)
                attempts = prior + 1
                try:
                    outcome = fut.result()
                except BrokenProcessPool as exc:
                    pool_broken = True
                    handle_failure(run, {
                        "ok": False,
                        "error": f"BrokenProcessPool: {exc}",
                        "error_types": ["BrokenProcessPool"],
                    }, attempts)
                    continue
                except Exception as exc:  # pickling errors and friends
                    handle_failure(run, {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                        "error_types": [c.__name__
                                        for c in type(exc).__mro__],
                    }, attempts)
                    continue
                if outcome["ok"]:
                    record_done(run, outcome["payload"], attempts,
                                float(outcome.get("wall_time_s", 0.0)))
                else:
                    handle_failure(run, outcome, attempts)
            if pool_broken or getattr(pool, "_broken", False):
                # recycle whatever was in flight through the retry path
                for fut, (run, prior) in list(in_flight.items()):
                    handle_failure(run, {
                        "ok": False,
                        "error": "BrokenProcessPool: worker died",
                        "error_types": ["BrokenProcessPool"],
                    }, prior + 1)
                in_flight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = make_pool()
            c = counts()
            beat.tick(done=c["done"], cached=c["cached"], failed=c["failed"],
                      running=len(in_flight))
    except KeyboardInterrupt:
        # graceful drain: stop submitting, let in-flight runs finish
        for fut in list(in_flight):
            fut.cancel()
        settled, _ = wait(set(in_flight), timeout=None)
        for fut in settled:
            run, prior = in_flight.pop(fut)
            if fut.cancelled():
                continue
            try:
                outcome = fut.result()
            except Exception:
                continue
            if outcome.get("ok"):
                record_done(run, outcome["payload"], prior + 1,
                            float(outcome.get("wall_time_s", 0.0)))
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
