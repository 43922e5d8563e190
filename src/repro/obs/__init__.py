"""repro.obs -- instrumentation, metrics and tracing for the simulators.

This package observes the *simulator itself* -- event-loop throughput,
fastsim step cost, protocol hot-spot rates, memory -- and is deliberately
distinct from :mod:`repro.telemetry`, which models the measured system's
own log pipeline (Section V.A) and must keep reading only parsed log
strings.  ``repro.telemetry`` is part of the reproduced artefact;
``repro.obs`` is the lens we point at our own machinery.

Typical use::

    import repro.obs as obs

    with obs.session(metrics_path="m.jsonl", trace_path="t.json",
                     progress=True, scenario="flash_crowd", seed=7):
        system = CoolstreamingSystem(cfg, seed=7)   # auto-instruments
        ...run...

    # m.jsonl          JSONL time series of every counter/gauge/histogram
    # t.json           Chrome trace_event JSON (open in Perfetto)
    # m.manifest.json  seed, config hash, git rev, wall time, peak RSS

Everything is off by default: with no active session the engines run their
original un-instrumented loops and the helpers below are no-ops.
"""

from __future__ import annotations

from repro.obs.context import (
    ObsContext,
    ObsError,
    activate,
    current,
    deactivate,
    session,
)
from repro.obs.exporters import JsonlMetricsWriter, write_prometheus
from repro.obs.manifest import (
    RunManifest,
    canonical_payload,
    config_fingerprint,
    git_revision,
    manifest_path_for,
    peak_rss_bytes,
    stable_hash,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_S,
    NULL_REGISTRY,
    BatchedCounter,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    StepPhases,
    Timer,
    render_prometheus,
)
from repro.obs.progress import ProgressReporter
from repro.obs.trace import TraceCollector

__all__ = [
    "ObsContext", "ObsError", "activate", "current", "deactivate", "session",
    "JsonlMetricsWriter", "write_prometheus",
    "RunManifest", "canonical_payload", "config_fingerprint", "git_revision",
    "manifest_path_for", "peak_rss_bytes", "stable_hash",
    "BatchedCounter", "Counter", "Gauge", "Histogram", "Timer", "MetricsRegistry",
    "NullRegistry", "NULL_REGISTRY", "DEFAULT_TIME_BUCKETS_S",
    "render_prometheus", "ProgressReporter", "TraceCollector",
    "StepPhases", "inc", "observe", "set_gauge", "enabled", "step_phases",
]


# ---------------------------------------------------------------------------
# module-level helpers for protocol-layer call sites
#
# Core protocol code (node.py, stream.py ...) counts hot-spot events through
# these: one ``is None`` check when observability is off, a dict lookup and
# an integer add when on.  They always target the ambient session so call
# sites need no plumbing.
# ---------------------------------------------------------------------------

def enabled() -> bool:
    """Whether an observability session is active."""
    return current() is not None


def inc(name: str, n: int = 1) -> None:
    """Increment a counter in the ambient registry (no-op when off)."""
    ctx = current()
    if ctx is not None:
        ctx.registry.counter(name).inc(n)


def observe(name: str, value: float) -> None:
    """Record a histogram observation in the ambient registry."""
    ctx = current()
    if ctx is not None:
        ctx.registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge in the ambient registry (no-op when off)."""
    ctx = current()
    if ctx is not None:
        ctx.registry.gauge(name).set(value)


def _no_phase(phase: str) -> None:
    """Phase marker of an uninstrumented engine: does nothing."""


def step_phases(ctx: ObsContext | None, prefix: str):
    """The step-phase marker for one engine step.

    With an attached context, a :class:`StepPhases` writing the wall time
    of each phase into registry timers ``<prefix>.<phase>``; without one,
    a no-op, so a step marks its phases unconditionally.
    """
    return _no_phase if ctx is None else StepPhases(ctx.registry, prefix)
