"""Scenario presets.

Every benchmark and example builds on one of these.  Scale calibration
(DESIGN.md section 4): the measured event peaked at ~40,000 users on 24
dedicated servers; presets default to 1/20-1/40 scale with the server
fleet scaled by the same factor, preserving the server/peer capacity
ratio that governs the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import SystemConfig
from repro.network.capacity import CapacityModel
from repro.network.connectivity import ConnectivityMix
from repro.workload.arrivals import (
    ArrivalProcess,
    DiurnalProfile,
    FlashCrowd,
    PoissonArrivals,
    UniformBurst,
)
from repro.workload.sessions import (
    FixedDuration,
    ProgramSchedule,
    SessionDurationModel,
)

__all__ = [
    "Scenario",
    "evening_broadcast",
    "steady_audience",
    "flash_crowd_storm",
    "diurnal_day",
    "uniform_ramp",
]


@dataclass
class Scenario:
    """A fully specified experiment: system config + workload + horizon.

    A scenario is pure data; execution belongs to :mod:`repro.runtime`,
    which drives it on any registered engine
    (``run_scenario(scenario, seed, engine=...)``, or
    ``build_backend(...)`` then ``backend.run(until)`` for mid-run
    snapshots).
    """

    name: str
    cfg: SystemConfig
    arrivals: ArrivalProcess
    horizon_s: float
    # any object with .sample(rng, n) -> durations; usually a
    # SessionDurationModel, FixedDuration for census-style sweeps
    duration_model: SessionDurationModel = field(default_factory=SessionDurationModel)
    schedule: ProgramSchedule = field(default_factory=ProgramSchedule)
    connectivity_mix: Optional[ConnectivityMix] = None
    capacity_model: Optional[CapacityModel] = None
    silent_leave_prob: float = 0.1


def evening_broadcast(
    *,
    scale: float = 1.0,
    horizon_s: float = 3_600.0,
    program_end_s: Optional[float] = None,
    peak_rate: float = 1.0,
    cfg: Optional[SystemConfig] = None,
) -> Scenario:
    """The scaled 2006-09-27 evening event (Figs. 5b, 8, 10).

    The audience ramps steeply for the first ~40% of the horizon, holds
    through "prime time", then collapses at ``program_end_s`` (default:
    75% of the horizon) -- the 22:00 cliff.  ``scale`` multiplies both the
    arrival rate and the server fleet.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    base_cfg = cfg or SystemConfig()
    n_servers = max(1, round(base_cfg.n_servers * scale / 10.0))
    system_cfg = base_cfg.with_overrides(n_servers=n_servers)
    end = program_end_s if program_end_s is not None else 0.75 * horizon_s
    arrivals = FlashCrowd(
        start_s=0.0,
        ramp_s=0.25 * horizon_s,
        hold_s=0.35 * horizon_s,
        decay_s=0.15 * horizon_s,
        peak_rate=peak_rate * scale,
        base_rate=0.05 * peak_rate * scale,
    )
    return Scenario(
        name="evening_broadcast",
        cfg=system_cfg,
        arrivals=arrivals,
        horizon_s=horizon_s,
        duration_model=SessionDurationModel(
            lognorm_median_s=0.15 * horizon_s,
            pareto_scale_s=0.5 * horizon_s,
        ),
        schedule=ProgramSchedule.single_ending(end, leave_probability=0.7),
    )


def steady_audience(
    *,
    rate_per_s: float = 0.5,
    horizon_s: float = 1_800.0,
    n_servers: int = 3,
    cfg: Optional[SystemConfig] = None,
) -> Scenario:
    """A stationary audience: Poisson arrivals balanced by departures.

    Used for steady-state measurements (Fig. 3 contribution shares,
    Fig. 4 topology statistics) where ramps would confound the metric.
    """
    base_cfg = cfg or SystemConfig()
    system_cfg = base_cfg.with_overrides(n_servers=n_servers)
    return Scenario(
        name="steady_audience",
        cfg=system_cfg,
        arrivals=PoissonArrivals(rate_per_s),
        horizon_s=horizon_s,
    )


def diurnal_day(
    *,
    day_seconds: float = 14_400.0,
    peak_rate: float = 2.0,
    n_servers: int = 6,
    program_ending: Optional[tuple[float, float]] = None,
    cfg: Optional[SystemConfig] = None,
) -> Scenario:
    """The full (scaled) broadcast day of Figs. 5 and 7.

    A diurnal arrival profile peaking in "prime time"; with
    ``program_ending=(time_s, leave_prob)`` the 22:00 cliff is
    superimposed (Fig. 5), without it the day runs out smoothly (Fig. 7's
    per-period ready-time slices).
    """
    if day_seconds <= 0:
        raise ValueError("day_seconds must be positive")
    base_cfg = cfg or SystemConfig()
    system_cfg = base_cfg.with_overrides(n_servers=n_servers)
    schedule = (
        ProgramSchedule.single_ending(*program_ending)
        if program_ending is not None else ProgramSchedule()
    )
    return Scenario(
        name="diurnal_day",
        cfg=system_cfg,
        arrivals=DiurnalProfile.evening_peak(
            day_seconds=day_seconds, peak_rate=peak_rate
        ),
        horizon_s=day_seconds,
        duration_model=SessionDurationModel(
            lognorm_median_s=0.08 * day_seconds,
            pareto_scale_s=0.2 * day_seconds,
        ),
        schedule=schedule,
    )


def uniform_ramp(
    *,
    n_users: int,
    horizon_s: float = 1_200.0,
    ramp_frac: float = 0.25,
    n_servers: int = 4,
    cfg: Optional[SystemConfig] = None,
) -> Scenario:
    """Exactly ``n_users`` arrivals over the first ``ramp_frac`` of the
    horizon, everyone staying to the end -- the Fig. 9 sweep workload,
    where continuity is measured at a known population size.
    """
    if not (0.0 < ramp_frac <= 1.0):
        raise ValueError("ramp_frac must be in (0, 1]")
    base_cfg = cfg or SystemConfig()
    system_cfg = base_cfg.with_overrides(n_servers=n_servers)
    return Scenario(
        name="uniform_ramp",
        cfg=system_cfg,
        arrivals=UniformBurst(n_users=int(n_users), t0=0.0,
                              t1=ramp_frac * horizon_s),
        horizon_s=horizon_s,
        duration_model=FixedDuration(horizon_s),
    )


def flash_crowd_storm(
    *,
    burst_users_per_s: float = 4.0,
    horizon_s: float = 900.0,
    n_servers: int = 2,
    cfg: Optional[SystemConfig] = None,
) -> Scenario:
    """A hard join storm against a small server fleet (Figs. 6, 7, 10b).

    Stresses exactly the mechanism Section V.C blames for long ready
    times: mCaches fill with newly joined peers that cannot yet provide
    stable streams.
    """
    base_cfg = cfg or SystemConfig()
    system_cfg = base_cfg.with_overrides(n_servers=n_servers)
    arrivals = FlashCrowd(
        start_s=0.05 * horizon_s,
        ramp_s=0.10 * horizon_s,
        hold_s=0.25 * horizon_s,
        decay_s=0.10 * horizon_s,
        peak_rate=burst_users_per_s,
        base_rate=0.1,
    )
    return Scenario(
        name="flash_crowd_storm",
        cfg=system_cfg,
        arrivals=arrivals,
        horizon_s=horizon_s,
        duration_model=SessionDurationModel(
            lognorm_median_s=0.3 * horizon_s,
            pareto_scale_s=0.8 * horizon_s,
        ),
    )
