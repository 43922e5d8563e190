"""Layer spans recorded from outside the program.

:func:`install` wraps public entry points of ``repro`` in the current
process -- only the benchmark's operation process calls it -- so each call
into a layer becomes a span.  :class:`Ledger` keeps, per layer, the call
count, the inclusive time and the self time (a span's duration minus the
part its nested spans cover).  Time outside every span but inside the
root span is the unattributed remainder.

Layers and what they wrap:

=====================  ==================================================
``workload.scenario``  scenario builders the figure module calls
``workload.sample``    ``runtime.driver.sample_workload``
``runtime.build``      ``runtime.driver.build_backend``
``engine``             ``run`` of the engine's backend class
``telemetry.ingest``   ``LogServer.receive_report`` (encode + store)
``network.fairshare``  the ``waterfill_rates`` bindings in ``core.stream``
                       and ``core.pull``
``telemetry.flush``    ``LogServer.flush``
``telemetry.read``     each step of ``LogServer.reports`` (sink read)
``telemetry.decode``   ``LogEntry.parse``
``analysis``           the ``repro.analysis`` callables the figure module
                       imports, and ``SessionTable`` methods
``experiments.render`` ``render_table``/``render_series`` in the figure
                       module and ``FigureResult.render``
=====================  ==================================================

``network.fairshare`` sees only the public ``waterfill_rates`` calls: the
upload scheduler in ``core.stream`` inlines the private ``_waterfill_py``
for small partner sets, and that path can only be timed by a span inside
the program.  Its time lands in ``engine`` self time.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter  # repro: noqa[DET002] benchmark stopwatch
from types import FunctionType
from typing import Callable, Dict, List

__all__ = ["Ledger", "install"]


class Ledger:
    """Per-layer call counts, inclusive time and self time."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        # one accumulator per open span: time covered by its children
        self._stack: List[List[float]] = [[0.0]]

    def root_child_s(self) -> float:
        """Time covered by top-level spans since the ledger was created."""
        return self._stack[0][0]

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``layer`` span."""
        stack, calls = self._stack, self.calls
        inclusive_s, self_s = self.inclusive_s, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()  # repro: noqa[DET002] benchmark stopwatch
            try:
                return fn(*args, **kwargs)
            finally:
                dur_s = perf_counter() - t0  # repro: noqa[DET002] benchmark stopwatch
                stack.pop()
                stack[-1][0] += dur_s
                calls[layer] += 1
                inclusive_s[layer] += dur_s
                self_s[layer] += dur_s - frame[0]

        return traced

    def wrap_iter(self, layer: str, fn: Callable) -> Callable:
        """``fn`` returning an iterator; each step becomes a ``layer`` span.

        The consumer's work between steps stays in the consumer's span.
        """
        stack, calls = self._stack, self.calls
        inclusive_s, self_s = self.inclusive_s, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[layer] += 1
            it = iter(fn(*args, **kwargs))
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()  # repro: noqa[DET002] benchmark stopwatch
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur_s = perf_counter() - t0  # repro: noqa[DET002] benchmark stopwatch
                    stack.pop()
                    stack[-1][0] += dur_s
                    inclusive_s[layer] += dur_s
                    self_s[layer] += dur_s - frame[0]
                yield item

        return traced


def _patch(owner, attr: str, wrapper: Callable) -> None:
    """Replace ``owner.attr`` (function, method or classmethod)."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrapper(raw.__func__)))
    else:
        setattr(owner, attr, wrapper(raw))


def install(ledger: Ledger, engine: str) -> None:
    """Wrap the public entry points of every layer in this process."""
    import repro.core.pull as pull
    import repro.core.stream as stream
    import repro.experiments.figures as figures
    import repro.runtime.driver as driver
    from repro.analysis.sessions import SessionTable
    from repro.experiments.render import FigureResult
    from repro.runtime.backends import resolve_backend
    from repro.telemetry.server import LogEntry, LogServer

    def span(layer: str) -> Callable[[Callable], Callable]:
        return lambda fn: ledger.wrap(layer, fn)

    for name in ("diurnal_day", "flash_crowd_storm", "steady_audience"):
        _patch(figures, name, span("workload.scenario"))
    _patch(driver, "sample_workload", span("workload.sample"))
    _patch(driver, "build_backend", span("runtime.build"))
    _patch(resolve_backend(engine), "run", span("engine"))
    _patch(LogServer, "receive_report", span("telemetry.ingest"))
    _patch(stream, "waterfill_rates", span("network.fairshare"))
    _patch(pull, "waterfill_rates", span("network.fairshare"))
    _patch(LogServer, "flush", span("telemetry.flush"))
    _patch(LogServer, "reports",
           lambda fn: ledger.wrap_iter("telemetry.read", fn))
    _patch(LogEntry, "parse", span("telemetry.decode"))

    # every analysis function the figure module imported by name, the
    # methods of the session table it builds, and the CDF constructor
    for name, obj in list(vars(figures).items()):
        if isinstance(obj, FunctionType) and obj.__module__.startswith("repro.analysis"):
            setattr(figures, name, ledger.wrap("analysis", obj))
    for name, raw in list(vars(SessionTable).items()):
        if not name.startswith("_") and isinstance(raw, (FunctionType, classmethod)):
            _patch(SessionTable, name, span("analysis"))
    _patch(figures.Cdf, "from_samples", span("analysis"))

    for name in ("render_table", "render_series"):
        _patch(figures, name, span("experiments.render"))
    _patch(FigureResult, "render", span("experiments.render"))
