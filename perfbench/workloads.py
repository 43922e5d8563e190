"""The figure-pipeline workloads of the benchmark.

Each workload is one figure function of :mod:`repro.experiments.figures`
with fixed keyword arguments.  The run seed is the only input that varies:
it selects :data:`SUBSEEDS` figure seeds, and the operations of a run cycle
through them, so one run measures several audience realizations instead
of one.

``BENCHMARK.json`` carries each workload's name and reason; the smoke test
keeps the two lists equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = ["Workload", "WORKLOADS", "SUBSEEDS", "figure_seeds", "get"]

#: figure seeds per run seed.  Run seed ``s`` owns figure seeds
#: ``s*SUBSEEDS .. s*SUBSEEDS + SUBSEEDS-1``, so distinct run seeds never
#: share an input.
SUBSEEDS = 8


@dataclass(frozen=True)
class Workload:
    """One figure pipeline with fixed arguments."""

    name: str
    #: function name in :mod:`repro.experiments.figures`
    figure: str
    kwargs: Dict[str, object]
    #: tiny-horizon arguments used by the smoke test (``--smoke``)
    smoke_kwargs: Dict[str, object]
    #: True: the log spills through ``telemetry.sink.set_spill_root`` to a
    #: temporary directory the benchmark owns
    spill: bool
    why: str

    @property
    def engine(self) -> str:
        """Engine name the figure runs on."""
        return str(self.kwargs["engine"])

    def arguments(self, smoke: bool) -> Dict[str, object]:
        """Keyword arguments for the figure call (seed excluded)."""
        return dict(self.smoke_kwargs if smoke else self.kwargs)


WORKLOADS: List[Workload] = [
    Workload(
        name="fig6_flash_detailed",
        figure="fig6_join_time_cdfs",
        kwargs={"engine": "detailed", "burst_users_per_s": 1.2,
                "horizon_s": 450.0},
        smoke_kwargs={"engine": "detailed", "burst_users_per_s": 1.2,
                      "horizon_s": 60.0},
        spill=False,
        why=("fig6 detailed engine, 450 s flash crowd at 1.2 joins/s: "
             "kernel, protocol and fairshare layers; the no-change control "
             "for telemetry changes"),
    ),
    Workload(
        name="fig5_diurnal_ode",
        figure="fig5_user_evolution",
        kwargs={"engine": "ode", "day_seconds": 5400.0, "peak_rate": 2.0},
        smoke_kwargs={"engine": "ode", "day_seconds": 600.0,
                      "peak_rate": 2.0},
        spill=False,
        why=("fig5 ODE engine, 5400 s diurnal day with the 22:00 cliff: "
             "report encode, ingest and in-memory decode; the no-change "
             "control for sim/core/network changes"),
    ),
    Workload(
        name="fig8_steady_fast_spill",
        figure="fig8_continuity_by_type",
        kwargs={"engine": "fast", "rate_per_s": 1.0, "horizon_s": 900.0},
        smoke_kwargs={"engine": "fast", "rate_per_s": 1.0,
                      "horizon_s": 300.0},
        spill=True,
        why=("fig8 fast engine, 900 s steady audience at 1 join/s, log "
             "spilled to disk: one gzip write, three read+decode passes; "
             "shows decode caches that trade memory for time"),
    ),
]


def get(name: str) -> Workload:
    """The workload called ``name``; ValueError names the valid ones."""
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{[w.name for w in WORKLOADS]}")


def figure_seeds(run_seed: int) -> List[int]:
    """The figure seeds a run with ``run_seed`` cycles through."""
    if run_seed < 0:
        raise ValueError("seed must be >= 0")
    return [run_seed * SUBSEEDS + j for j in range(SUBSEEDS)]
