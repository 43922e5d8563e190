"""Experiment registry: the one name -> function table of experiments.

The figure commands of ``python -m repro``, ``python -m repro profile``
and campaign workers all look experiments up in :data:`EXPERIMENTS`.
Campaign runs carry only a *string* experiment reference so that specs
are serialisable and worker processes can re-resolve the callable on
their side.  Two forms are accepted:

* a short registry name (``"fig3"``, ``"fig9_size"``, ...) listed in
  :data:`EXPERIMENTS`;
* a ``"module:qualname"`` path to any importable callable accepting a
  ``seed`` keyword and returning a
  :class:`~repro.experiments.render.FigureResult`.

The registered callables are exactly the in-process figure functions —
a campaign worker therefore seeds :class:`~repro.sim.rng.RngHub` exactly
as a sequential call does, which is what makes parallel runs bit-identical
to ``--jobs 1``.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict

from repro.campaign.spec import SpecError
from repro.experiments.figures import (
    table1,
    fig3_user_types_and_contribution,
    fig4_overlay_structure,
    fig5_user_evolution,
    fig6_join_time_cdfs,
    fig7_ready_time_by_period,
    fig8_continuity_by_type,
    fig9_rate_point,
    fig9_scalability,
    fig9_size_point,
    fig10_sessions_and_retries,
)
from repro.experiments.model_validation import (
    validate_convergence_model,
    validate_dynamics_equations,
)

__all__ = ["EXPERIMENTS", "SWEEP_POINTS", "UnknownExperimentError",
           "resolve_experiment", "experiment_ref"]


class UnknownExperimentError(SpecError):
    """The experiment reference cannot be resolved (CLI exit code 2)."""


#: every named experiment, in ``python -m repro list`` order.  The CLI
#: passes ``seed``/``jobs``/``engine`` only where the signature takes them
#: (``table1`` is static and takes none); campaign runs always pass ``seed``.
EXPERIMENTS: Dict[str, Callable] = {
    "table1": table1,
    "fig3": fig3_user_types_and_contribution,
    "fig4": fig4_overlay_structure,
    "fig5": fig5_user_evolution,
    "fig6": fig6_join_time_cdfs,
    "fig7": fig7_ready_time_by_period,
    "fig8": fig8_continuity_by_type,
    "fig9": fig9_scalability,
    "fig9_size": fig9_size_point,
    "fig9_rate": fig9_rate_point,
    "fig10": fig10_sessions_and_retries,
    "model": validate_dynamics_equations,
    "convergence": validate_convergence_model,
}

#: single Fig. 9 sweep points: campaign grid cells, not CLI commands
SWEEP_POINTS = frozenset({"fig9_size", "fig9_rate"})


def resolve_experiment(ref: str) -> Callable:
    """Resolve an experiment reference to its callable.

    Registry names win; otherwise ``module:qualname`` is imported.  Raises
    :class:`UnknownExperimentError` on anything unresolvable.
    """
    fn = EXPERIMENTS.get(ref)
    if fn is not None:
        return fn
    if ":" in ref:
        mod_name, _, qualname = ref.partition(":")
        try:
            mod = importlib.import_module(mod_name)
        except ImportError as exc:
            raise UnknownExperimentError(
                f"cannot import experiment module {mod_name!r}: {exc}"
            ) from exc
        obj = mod
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                raise UnknownExperimentError(
                    f"no callable {qualname!r} in module {mod_name!r}"
                )
        if not callable(obj):
            raise UnknownExperimentError(f"{ref!r} is not callable")
        return obj
    raise UnknownExperimentError(
        f"unknown experiment {ref!r}; registry names: "
        f"{', '.join(sorted(EXPERIMENTS))} "
        f"(or use 'module:qualname')"
    )


def experiment_ref(fn: Callable) -> str:
    """The canonical string reference for a callable.

    Prefers a registry name; falls back to ``module:qualname``, verifying
    it round-trips to the same object (closures and lambdas do not and are
    rejected — they cannot be re-resolved inside a worker process).
    """
    for name, registered in EXPERIMENTS.items():
        if registered is fn:
            return name
    mod = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    ref = f"{mod}:{qualname}"
    if not mod or "<" in qualname:
        raise UnknownExperimentError(
            f"experiment {fn!r} is not importable by name; campaign workers "
            f"need a module-level callable"
        )
    if resolve_experiment(ref) is not fn:
        raise UnknownExperimentError(
            f"experiment reference {ref!r} does not round-trip to {fn!r}"
        )
    return ref
