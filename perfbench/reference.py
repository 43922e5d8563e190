"""Output check against a committed reference.

An operation's output is the figure's ``metrics`` dict, reduced to a
canonical JSON digest, plus two exact counts: ``telemetry.lines`` (log
size) and ``sim.events`` (detailed-engine kernel events, 0 elsewhere).
``reference/<workload>.json`` holds them per figure seed, together with
the parameters they were recorded with and the host fingerprint.

Detailed-engine outputs depend on the CPU family: fairshare's default
``argsort`` dispatches to SIMD code whose tie order differs between
instruction sets.  A reference recorded on another host therefore cannot
vouch for this one; the check names every fingerprint field that differs
and reports the verdict as unverified instead of passing.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["Reference", "digest", "host_fingerprint", "outcome"]

#: the counts compared exactly, next to the metrics digest
COUNTS = ("telemetry.lines", "sim.events")


def digest(metrics: Dict[str, float]) -> str:
    """SHA-256 of the canonical JSON form of a figure's metrics."""
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(op: Dict[str, object]) -> Dict[str, object]:
    """The compared part of an operation result."""
    out: Dict[str, object] = {"digest": op["digest"]}
    for key in COUNTS:
        out[key] = op[key]
    return out


def _numpy_simd() -> str:
    """The SIMD targets numpy dispatches to on this CPU."""
    try:
        from numpy._core._multiarray_umath import (  # numpy >= 2
            __cpu_dispatch__, __cpu_features__)
    except ImportError:
        from numpy.core._multiarray_umath import (  # numpy 1.x
            __cpu_dispatch__, __cpu_features__)
    return ",".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))


def host_fingerprint() -> Dict[str, object]:
    """What decides bit-identity of outputs across hosts."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "numpy_simd": _numpy_simd(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Reference:
    """The committed outputs of one workload, keyed by figure seed.

    One JSON file per workload: the host fingerprint, the figure
    arguments the outputs were recorded with, and one outcome per seed.
    """

    def __init__(self, path: Path, params: Dict[str, object]) -> None:
        self.path = Path(path)
        self.params = params
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                self.doc = json.load(fh)
        except FileNotFoundError:
            self.doc = None
        self.host = host_fingerprint()

    def fingerprint_diff(self) -> List[str]:
        """Fingerprint fields that differ from the recording host."""
        recorded = self.doc["fingerprint"] if self.doc else {}
        return [
            f"{k} (reference {recorded.get(k)!r}, host {v!r})"
            for k, v in self.host.items() if recorded.get(k) != v
        ]

    def expected(self, figure_seed: int) -> Tuple[Optional[dict], str]:
        """The recorded outcome for ``figure_seed``, or why there is none."""
        if self.doc is None:
            return None, f"no reference file {self.path.name}"
        if self.doc["params"] != self.params:
            return None, (f"{self.path.name} was recorded with "
                          f"{self.doc['params']}, the workload now uses "
                          f"{self.params}")
        found = self.doc["seeds"].get(str(figure_seed))
        if found is None:
            return None, f"no reference for figure seed {figure_seed}"
        return found, ""

    def record(self, outcomes: Dict[int, Dict[str, object]]) -> None:
        """Store ``outcomes`` (figure seed -> outcome) and write the file.

        Outcomes recorded on another host or with other arguments are
        replaced, not mixed in.
        """
        doc = self.doc
        if doc is None or doc["params"] != self.params or self.fingerprint_diff():
            doc = {"fingerprint": self.host, "params": self.params, "seeds": {}}
        seeds = dict(doc["seeds"])
        seeds.update({str(seed): out for seed, out in outcomes.items()})
        doc["seeds"] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, self.path)
        self.doc = doc
