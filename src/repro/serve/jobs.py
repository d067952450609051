"""Job requests: canonicalisation, content-addressed keys, executors.

A submitted job is a JSON payload naming one of three kinds —
``experiment`` (a registered paper reproduction), ``scenario`` (one
seeded heavy-traffic preset run) or ``sweep`` (an N-seed scenario sweep
through the parallel runner).  :func:`normalize_request` reduces the
payload to its canonical form so that *equivalent* requests — reordered
fields, ``4.0`` for ``4``, defaults spelled out versus elided — map to
one :func:`job_key`, which is what the server deduplicates on:

* unknown fields are rejected (a typo must not silently fork a key);
* every number with an exact integer value is canonicalised to ``int``
  (JSON clients routinely ship ``seed: 3.0``); non-integral floats and
  arbitrary-precision ints pass through unchanged, so distinct values
  can never collapse onto one key;
* defaults are filled in before hashing, so eliding ``engine`` equals
  writing ``"reference"``, and an engine synonym equals the engine it
  names (``"compiled"`` is ``"batched"``);
* execution knobs (``workers`` etc., see
  :data:`repro.runner.executor.EXECUTION_OPTIONS`) are stripped — they
  change how a result is computed, never what it is.

:func:`execute_job` is the blocking executor the server runs in a
thread: it dispatches on the ``job_kind`` seam to the existing runner
entry points (:func:`~repro.runner.executor.run_experiments`,
:func:`~repro.scenarios.sweep.run_scenario_sweep`) and returns a
JSON-safe result payload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..runner.cache import ResultCache, canonical_key
from ..runner.executor import EXECUTION_OPTIONS, run_experiments
from ..runner.instrumentation import RunnerStats
from ..obs import Observability
from .protocol import PROTOCOL_VERSION

__all__ = [
    "JOB_KINDS",
    "JobError",
    "JobRequest",
    "normalize_request",
    "job_key",
    "execute_job",
]

#: The registered job kinds (the ``job_kind`` engine seam; mirrored in
#: ``repro.lint.seams``).
JOB_KINDS = ("experiment", "scenario", "sweep")

#: Allowed spec fields per kind (after sugar like ``n_seeds`` expands).
_ALLOWED_FIELDS = {
    "experiment": frozenset({"id", "options"}),
    "scenario": frozenset({"preset", "seed", "engine"}),
    "sweep": frozenset({"preset", "seeds", "n_seeds", "engine"}),
}


class JobError(ValueError):
    """An invalid job payload (unknown kind, bad field, bad value)."""


def _canonical_number(value: float) -> int | float:
    """Ints and int-valued floats share one canonical form.

    ``4.0`` and ``4`` are the same request over JSON, so both map to
    ``4``.  The round-trip guard keeps distinct values distinct: a
    float is only folded when ``int(v)`` converts back to exactly the
    same float, and ints (arbitrary precision) are never touched, so
    e.g. ``2**53`` and ``2**53 + 1`` keep distinct keys even though
    they collide as doubles.
    """
    if isinstance(value, float) and value.is_integer() \
            and float(int(value)) == value:
        return int(value)
    return value


def _normalize_value(value: Any, where: str) -> Any:
    """Reduce one spec value to canonical JSON-safe primitives."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return _canonical_number(value)
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value, key=str):
            out[str(key)] = _normalize_value(value[key], f"{where}.{key}")
        return out
    if isinstance(value, (list, tuple)):
        return [_normalize_value(v, f"{where}[]") for v in value]
    raise JobError(
        f"{where}: unsupported value type {type(value).__name__} "
        "(job specs are JSON: str/int/float/bool/None/list/dict)")


def _require_str(spec: Mapping, field: str, job_kind: str) -> str:
    value = spec.get(field)
    if not isinstance(value, str) or not value:
        raise JobError(
            f"{job_kind} job requires a non-empty string {field!r}")
    return value


def _require_int(value: Any, where: str) -> int:
    value = _canonical_number(value) if isinstance(value, float) else value
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobError(f"{where} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class JobRequest:
    """One canonicalised job: a kind plus its normalised spec."""

    job_kind: str
    spec: Any  # canonical dict; hashable-by-content via key()

    def key(self) -> str:
        """The job's content address (see :func:`job_key`)."""
        return job_key(self)

    def to_payload(self) -> dict[str, Any]:
        """The wire payload that re-normalises to this request."""
        return {"kind": self.job_kind, **self.spec}

    def describe(self) -> str:
        if self.job_kind == "experiment":
            return f"experiment {self.spec['id']}"
        if self.job_kind == "scenario":
            return (f"scenario {self.spec['preset']} "
                    f"seed={self.spec['seed']} ({self.spec['engine']})")
        return (f"sweep {self.spec['preset']} x{len(self.spec['seeds'])} "
                f"seeds ({self.spec['engine']})")


def _normalize_engine(spec: Mapping, job_kind: str) -> str:
    from ..simulation.network import PACKET_ENGINES, resolve_engine

    engine = spec.get("engine", "reference")
    try:
        return resolve_engine(engine)
    except (TypeError, ValueError):
        raise JobError(
            f"{job_kind} job names unknown packet engine {engine!r}; "
            f"registered: {', '.join(PACKET_ENGINES)}") from None


def _normalize_preset(spec: Mapping, job_kind: str) -> str:
    from ..scenarios import PRESETS

    preset = _require_str(spec, "preset", job_kind)
    if preset not in PRESETS:
        raise JobError(
            f"unknown scenario preset {preset!r}; "
            f"available: {', '.join(sorted(PRESETS))}")
    return preset


def normalize_request(payload: Mapping[str, Any]) -> JobRequest:
    """Validate and canonicalise one submitted job payload.

    The payload carries ``kind`` plus the kind's spec fields inline
    (``{"kind": "scenario", "preset": "incast-32", "seed": 3}``).
    Raises :class:`JobError` on anything malformed.
    """
    if not isinstance(payload, Mapping):
        raise JobError(
            f"job payload must be an object, got {type(payload).__name__}")
    job_kind = payload.get("kind")
    if job_kind not in JOB_KINDS:
        raise JobError(
            f"unknown job kind {job_kind!r}; "
            f"registered: {', '.join(JOB_KINDS)}")
    spec = {k: v for k, v in payload.items() if k != "kind"}
    unknown = sorted(set(spec) - set(_ALLOWED_FIELDS[job_kind]))
    if unknown:
        raise JobError(
            f"{job_kind} job has unknown field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(_ALLOWED_FIELDS[job_kind]))}")

    if job_kind == "experiment":
        from ..experiments.base import all_experiments

        experiment_id = _require_str(spec, "id", job_kind)
        import repro.experiments  # noqa: F401 — registration side effects

        if experiment_id not in all_experiments():
            raise JobError(
                f"unknown experiment id {experiment_id!r}; "
                f"registered: {', '.join(sorted(all_experiments()))}")
        options = spec.get("options", {})
        if not isinstance(options, Mapping):
            raise JobError("experiment options must be an object")
        options = {k: v for k, v in options.items()
                   if k not in EXECUTION_OPTIONS}
        canonical = {
            "id": experiment_id,
            "options": _normalize_value(options, "options"),
        }
    elif job_kind == "scenario":
        canonical = {
            "preset": _normalize_preset(spec, job_kind),
            "seed": _require_int(spec.get("seed", 0), "seed"),
            "engine": _normalize_engine(spec, job_kind),
        }
    else:
        if "seeds" in spec and "n_seeds" in spec:
            raise JobError("sweep job takes seeds or n_seeds, not both")
        if "n_seeds" in spec:
            n_seeds = _require_int(spec["n_seeds"], "n_seeds")
            if n_seeds < 1:
                raise JobError(f"n_seeds must be >= 1, got {n_seeds}")
            seeds = list(range(n_seeds))
        else:
            raw = spec.get("seeds", [0])
            if not isinstance(raw, (list, tuple)) or not raw:
                raise JobError("sweep seeds must be a non-empty list")
            seeds = [_require_int(s, "seeds[]") for s in raw]
        canonical = {
            "preset": _normalize_preset(spec, job_kind),
            "seeds": seeds,
            "engine": _normalize_engine(spec, job_kind),
        }
    return JobRequest(job_kind=job_kind, spec=canonical)


def job_key(request: JobRequest) -> str:
    """Content address of one canonical request.

    Reuses the cache's canonical hashing with the protocol version in
    place of the package version: the *key* identifies the request, and
    the :class:`~repro.runner.cache.ResultCache` mixes the package
    version in again at store time, so a package upgrade invalidates
    stored results without renaming in-flight jobs.
    """
    return canonical_key(f"serve.{request.job_kind}", request.spec,
                         f"proto{PROTOCOL_VERSION}")


# -- execution ---------------------------------------------------------------


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars/arrays so a payload serialises as JSON."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _series_digest(series: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over an experiment's series columns, order-free."""
    digest = hashlib.sha256()
    for name in sorted(series):
        arr = np.ascontiguousarray(np.asarray(series[name], dtype=float))
        digest.update(name.encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def execute_job(
    request: JobRequest,
    *,
    cache: ResultCache | None = None,
    workers: int | None = 0,
    stats: RunnerStats | None = None,
    obs: Observability | None = None,
) -> dict[str, Any]:
    """Run one job to completion (blocking) and return its payload.

    Dispatches on the ``job_kind`` seam to the existing runner entry
    points; ``cache`` is the *underlying* result cache those entry
    points consult (the server separately caches the whole envelope),
    ``workers`` sizes their process pools (0/1 = inline), ``stats``
    collects per-unit progress and ``obs`` the ``runner.*`` metrics.
    """
    job_kind = request.job_kind
    spec = request.spec
    if job_kind == "experiment":
        pairs = run_experiments(
            [spec["id"]], workers=0, cache=cache,
            options=dict(spec["options"]), stats=stats, obs=obs,
        )
        _, result = pairs[0]
        return {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "passed": result.passed,
            "verdicts": _json_safe(dict(result.verdicts)),
            "notes": list(result.notes),
            "series_columns": sorted(result.series),
            "series_sha256": _series_digest(result.series),
        }
    elif job_kind == "scenario":
        from ..scenarios.sweep import ScenarioPoint, evaluate_scenario_point

        point = ScenarioPoint(preset=spec["preset"], engine=spec["engine"],
                              seed=spec["seed"])
        record = _json_safe(evaluate_scenario_point(point))
        if stats is not None:
            stats.record(f"scenario[{spec['seed']}]", 0.0)
        return {"record": record}
    elif job_kind == "sweep":
        from ..scenarios.sweep import run_scenario_sweep

        sweep = run_scenario_sweep(
            spec["preset"], seeds=spec["seeds"], engine=spec["engine"],
            workers=workers, cache=cache, stats=stats, obs=obs,
        )
        return {
            "axes": _json_safe(sweep.axes),
            "records": _json_safe(sweep.records),
        }
    else:
        raise JobError(f"unknown job kind {job_kind!r}")
