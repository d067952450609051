"""N-seed scenario sweeps through the parallel runner.

A :class:`ScenarioPoint` is the picklable, ``with_()``-able base object
:func:`repro.runner.parallel.run_sweep_parallel` requires;
:func:`evaluate_scenario_point` is the module-level evaluate callable
(pool workers pickle it by reference).  :func:`run_scenario_sweep` wires
the two together so every preset runs as an N-seed sweep with identical
records on the serial (``workers<=1``) and pooled paths — the guarantee
the determinism suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..runner.parallel import run_sweep_parallel
from ..simulation.network import resolve_engine
from .presets import PRESETS, get_preset
from .runtime import run_scenario

__all__ = ["ScenarioPoint", "evaluate_scenario_point", "run_scenario_sweep"]


@dataclass(frozen=True)
class ScenarioPoint:
    """One (preset, engine, seed) cell of a scenario sweep grid."""

    preset: str
    engine: str = "reference"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(
                f"unknown scenario preset {self.preset!r}; "
                f"available: {sorted(PRESETS)}"
            )
        object.__setattr__(self, "engine", resolve_engine(self.engine))

    def with_(self, **overrides) -> "ScenarioPoint":
        """A validated copy with fields replaced (the runner seam)."""
        return replace(self, **overrides)


def evaluate_scenario_point(point: ScenarioPoint) -> dict:
    """Run one sweep cell and flatten it into a picklable record.

    The record carries the aggregate statistics the experiments and the
    determinism suite compare: utilisation under ``C(t)``, queue
    moments, control-plane counters, and the full per-flow FCT list in
    address order (``None`` for unfinished flows) so FCT
    *distributions* — not just means — can be checked across runner
    paths and engines.
    """
    scenario = get_preset(point.preset, point.seed)
    result = run_scenario(scenario, engine=point.engine)
    fcts = [f.fct for f in result.flows]
    finished = [f for f in fcts if f is not None]
    return {
        "preset": point.preset,
        "engine": point.engine,
        "utilization": result.utilization(),
        "queue_mean": result.sim.queue_mean(),
        "queue_peak": result.sim.queue_peak(),
        "dropped_frames": result.sim.dropped_frames,
        "pauses": result.sim.pauses,
        "bcn_messages": result.sim.bcn_negative + result.sim.bcn_positive,
        "n_dynamic_flows": len(result.flows),
        "n_finished": len(finished),
        "fcts": fcts,
        "fct_mean": float(np.mean(finished)) if finished else None,
        "fct_p99": float(np.percentile(finished, 99)) if finished else None,
        "conservation_error": result.conservation_error(),
    }


def run_scenario_sweep(
    preset: str,
    *,
    seeds,
    engine: str = "reference",
    workers: int | None = None,
    cache=None,
    stats=None,
    obs=None,
):
    """Run ``preset`` across ``seeds`` as a parallel sweep.

    Returns the runner's ``SweepResult``; records appear in seed order
    regardless of worker scheduling, and a :class:`~repro.runner.cache
    .ResultCache` makes repeated sweeps free.  Pass a
    :class:`~repro.runner.stats.RunnerStats` as ``stats`` to collect
    wall/worker timing.
    """
    base = ScenarioPoint(preset=preset, engine=engine)
    return run_sweep_parallel(
        base,
        {"seed": list(seeds)},
        evaluate_scenario_point,
        workers=workers,
        cache=cache,
        cache_id=f"scenario:{preset}:{base.engine}",
        stats=stats,
        obs=obs,
    )
