"""Module-level experiment callables for campaign tests.

Campaign workers re-resolve experiments by ``module:qualname``, so test
experiments must live at module level in an importable module (pytest
imports this as ``tests.campaign_helpers``; forked workers inherit it).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.experiments.render import FigureResult


def quick_experiment(*, seed: int, offset: float = 0.0) -> FigureResult:
    """Deterministic, instant: metrics are a pure function of inputs."""
    fr = FigureResult("Fig. T", "campaign test experiment")
    fr.metrics["value"] = 10.0 + seed + offset
    fr.metrics["seed"] = float(seed)
    return fr


def spill_probe_experiment(*, seed: int) -> FigureResult:
    """Fails unless a log-spill root rides the environment into the run."""
    from repro.telemetry.sink import SPILL_ENV_VAR

    if not os.environ.get(SPILL_ENV_VAR):
        raise RuntimeError(f"{SPILL_ENV_VAR} is not set inside the run")
    return quick_experiment(seed=seed)


def busy_experiment(*, seed: int, spin_s: float = 0.3) -> FigureResult:
    """Burns ~spin_s of CPU (for speedup/heartbeat behaviour)."""
    # wall clock is the point here: the experiment must burn real CPU
    # time so campaign speedup/heartbeat behaviour is observable
    t0 = time.perf_counter()  # repro: noqa[DET002]
    x = float(seed)
    while time.perf_counter() - t0 < spin_s:  # repro: noqa[DET002]
        x = (x * 1.0000001 + 1.0) % 1e9
    fr = FigureResult("Fig. B", "busy")
    fr.metrics["x"] = x
    fr.metrics["seed"] = float(seed)
    return fr


def sleepy_experiment(*, seed: int, sleep_s: float = 5.0) -> FigureResult:
    """Sleeps past any reasonable per-run timeout."""
    time.sleep(sleep_s)
    fr = FigureResult("Fig. S", "sleepy")
    fr.metrics["seed"] = float(seed)
    return fr


def broken_experiment(*, seed: int) -> FigureResult:
    """Always fails deterministically (never retried as transient)."""
    raise ValueError(f"deterministic failure at seed {seed}")


def flaky_experiment(*, seed: int, counter_file: str,
                     fail_times: int = 2) -> FigureResult:
    """Raises OSError (transient) until ``counter_file`` has
    ``fail_times`` lines; cross-process state so retries in worker
    processes see prior attempts."""
    path = Path(counter_file)
    attempts = len(path.read_text().splitlines()) if path.exists() else 0
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"attempt {attempts + 1}\n")
        fh.flush()
    if attempts < fail_times:
        raise OSError(f"transient hiccup {attempts + 1}")
    fr = FigureResult("Fig. F", "flaky")
    fr.metrics["attempts"] = float(attempts + 1)
    fr.metrics["seed"] = float(seed)
    return fr
