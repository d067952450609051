"""Which entry points the traced run wraps, and the per-layer metrics.

:func:`install` puts the :class:`~perfbench.tracer.Tracer` wrappers on
the public entry points of every layer; :func:`layer_metrics` reduces
the recorded spans and counts to the per-layer metrics named in
``BENCHMARK.json`` (``PER_LAYER``).  Span names are ``<layer>.<call>``.

The obs event counts are read from what the simulation and fluid entry
points return (``SimulationResult``/``MultiHopResult`` counters and the
fluid integrators' switching-line crossings), because an untouched run
has no obs handle to count them on.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter
from typing import Iterable

from tracer import Span, Tracer, self_times

EXPERIMENT_IDS = (
    "d1", "fig10", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "m1", "s1", "t1", "v1", "v2", "v3", "v4", "v5", "v6",
)

OBS_EVENT_KINDS = ("bcn", "pause_on", "drop", "region_switch")

PER_LAYER = (
    *(f"experiments.{eid}.s" for eid in EXPERIMENT_IDS),
    "core.calls", "core.self_s",
    "fluid.calls", "fluid.self_s",
    "kernels.calls", "kernels.self_s", "kernels.load_s",
    "simulation.reference.self_s", "simulation.batched.self_s",
    "simulation.compiled.self_s",
    "simulation.events", "simulation.events_per_s",
    "simulation.multihop.self_s",
    "baselines.self_s",
    "analysis.self_s",
    "scenarios.runs", "scenarios.self_s",
    "topology.self_s", "workloads.self_s",
    "shard.plan_s", "shard.self_s", "shard.windows", "shard.msgs",
    "runner.pool.call_s", "runner.pool.wait_s",
    "runner.cache.get_s", "runner.cache.put_s", "runner.cache.hit_ratio",
    "serve.queue_wait_ms", "serve.exec_ms", "serve.dedup_ratio",
    "serve.computed", "serve.failed",
    *(f"obs.events.{kind}" for kind in OBS_EVENT_KINDS),
    "obs.trace_overhead_frac",
)


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


UNITS = {name: _unit(name) for name in PER_LAYER}


# -- hooks: counts read from returned objects ---------------------------------


def _count_packet(tracer: Tracer, span: Span, result, events: int) -> None:
    tracer.count("simulation.events", events)
    if events:
        tracer.count("simulation.event_s", span.duration)
    tracer.count("obs.events.bcn", result.bcn_negative + result.bcn_positive)
    tracer.count("obs.events.pause_on", result.pauses)
    tracer.count("obs.events.drop", result.dropped_frames)


def _on_dumbbell_run(tracer, span, args, kwargs, result) -> None:
    _count_packet(tracer, span, result, args[0].sim.events_processed)


def _on_multihop_run(tracer, span, args, kwargs, result) -> None:
    sim = args[0].sim  # None on the sharded engine (kernels live in workers)
    _count_packet(tracer, span, result, sim.events_processed if sim else 0)


def _on_fluid(tracer, span, args, kwargs, result) -> None:
    tracer.count("obs.events.region_switch",
                 sum(1 for e in result.events if e.kind == "switch"))


def _on_fluid_batch(tracer, span, args, kwargs, result) -> None:
    tracer.count("obs.events.region_switch", int(result.switch_counts.sum()))


def _on_cache_get(tracer, span, args, kwargs, result) -> None:
    default = args[3] if len(args) > 3 else kwargs.get("default")
    tracer.count("runner.cache.lookups")
    if result is not default:
        tracer.count("runner.cache.hits")


def _on_window_edges(tracer, span, args, kwargs, result) -> None:
    tracer.count("shard.windows", len(result))


def _on_route(tracer, span, args, kwargs, result) -> None:
    tracer.count("shard.msgs", sum(len(inbox) for inbox in result))


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (imports the layers first)."""
    import repro.experiments  # noqa: F401 — registers the experiments

    def mod(name: str):
        # import_module, not ``from pkg import name``: some packages
        # re-export a function under its submodule's name.
        return importlib.import_module(f"repro.{name}")

    base = mod("experiments.base")
    limit_cycle, stability = mod("core.limit_cycle"), mod("core.stability")
    phase_portrait = mod("core.phase_portrait")
    integrate, batch = mod("fluid.integrate"), mod("fluid.batch")
    delay = mod("fluid.delay")
    backend, kfluid = mod("kernels._backend"), mod("kernels.fluid")
    kpacket = mod("kernels.packet")
    bcn, qcn, e2cm = (mod(f"baselines.{m}") for m in ("bcn", "qcn", "e2cm"))
    fera, aimd = mod("baselines.fera"), mod("baselines.aimd")
    validation, sweeps = mod("analysis.validation"), mod("analysis.sweeps")
    fairness = mod("analysis.fairness")
    scenario_runtime = mod("scenarios.runtime")
    graphs, partition = mod("topology.graphs"), mod("topology.partition")
    generators = mod("workloads.generators")
    plan, coordinator = mod("shard.plan"), mod("shard.coordinator")
    network, multihop = mod("simulation.network"), mod("simulation.multihop")
    cache, pool = mod("runner.cache"), mod("runner.pool")

    for eid in sorted(base._REGISTRY):
        tracer.patch_item(base._REGISTRY, eid, f"experiments.{eid}")

    functions = [
        (limit_cycle.find_limit_cycle, "core.find_limit_cycle", None),
        (limit_cycle.return_map, "core.return_map", None),
        (limit_cycle.amplitude_scan, "core.amplitude_scan", None),
        (stability.strong_stability_report, "core.strong_stability_report",
         None),
        (phase_portrait.phase_portrait, "core.phase_portrait", None),
        (integrate.simulate_fluid, "fluid.simulate_fluid", _on_fluid),
        (batch.simulate_fluid_batch, "fluid.simulate_fluid_batch",
         _on_fluid_batch),
        (batch.batch_return_map, "fluid.batch_return_map", None),
        (delay.simulate_delayed, "fluid.simulate_delayed", None),
        (kfluid.simulate_fluid_batch_compiled,
         "kernels.simulate_fluid_batch_compiled", None),
        (backend.get_backend, "kernels.get_backend", None),
        (bcn.run_bcn_dumbbell, "baselines.run_bcn_dumbbell", None),
        (qcn.run_qcn_dumbbell, "baselines.run_qcn_dumbbell", None),
        (e2cm.run_e2cm_dumbbell, "baselines.run_e2cm_dumbbell", None),
        (fera.run_fera_dumbbell, "baselines.run_fera_dumbbell", None),
        (aimd.run_aimd_dumbbell, "baselines.run_aimd_dumbbell", None),
        (validation.fluid_vs_packet, "analysis.fluid_vs_packet", None),
        (sweeps.sweep, "analysis.sweep", None),
        (fairness.simulate_two_flows, "analysis.simulate_two_flows", None),
        (scenario_runtime.run_scenario, "scenarios.run_scenario", None),
        (graphs.fat_tree, "topology.fat_tree", None),
        (partition.partition_graph, "topology.partition_graph", None),
        (generators.permutation, "workloads.permutation", None),
        (plan.build_plan, "shard.build_plan", None),
        (coordinator.run_sharded, "shard.run_sharded", None),
        (coordinator._route, "shard.route", _on_route),
    ]
    for fn, name, hook in functions:
        tracer.patch_function(fn, name, on_result=hook)

    methods = [
        (network.BCNNetworkSimulator, "run",
         lambda args: f"simulation.{args[0].engine}", _on_dumbbell_run),
        (multihop.MultiHopNetwork, "run", "simulation.multihop",
         _on_multihop_run),
        (kpacket.CompiledSwitchKernel, "process", "kernels.process", None),
        (plan.ShardPlan, "window_edges", "shard.window_edges",
         _on_window_edges),
        (pool.PersistentWorkerPool, "call", "runner.pool.call", None),
        (pool.PersistentWorkerPool, "result", "runner.pool.result", None),
        (cache.ResultCache, "get", "runner.cache.get", _on_cache_get),
        (cache.ResultCache, "put", "runner.cache.put", None),
    ]
    for cls, method, name, hook in methods:
        tracer.patch_method(cls, method, name, on_result=hook)


# -- reduction ----------------------------------------------------------------


def _first_load(spans: list[Span]) -> float:
    loads = [s for s in spans if s.name == "kernels.get_backend"]
    return min(loads, key=lambda s: s.start).duration if loads else 0.0


def layer_metrics(sources: Iterable[tuple[list[Span], Counter]], *,
                  serve: dict | None, overhead_frac: float) -> dict:
    """Per-layer metrics from the spans and counts of one or more
    processes (each ``(spans, counts)`` pair is one process).

    ``serve`` carries the server-side numbers read from job trace
    events and the server's counters (``None`` when no server ran).
    """
    inclusive: Counter[str] = Counter()
    own: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    load_s = 0.0
    for spans, process_counts in sources:
        counts.update(process_counts)
        load_s += _first_load(spans)
        selfs = self_times(spans)
        for span in spans:
            inclusive[span.name] += span.duration
            own[span.name] += selfs[span.sid]
            calls[span.name] += 1

    def by_prefix(table: Counter, prefix: str, *, skip=()) -> float:
        return sum(v for k, v in table.items()
                   if k.startswith(prefix) and k not in skip)

    m: dict[str, float] = {}
    for eid in EXPERIMENT_IDS:
        m[f"experiments.{eid}.s"] = inclusive[f"experiments.{eid}"]
    for layer in ("core", "fluid"):
        m[f"{layer}.calls"] = by_prefix(calls, f"{layer}.")
        m[f"{layer}.self_s"] = by_prefix(own, f"{layer}.")
    kernel_skip = ("kernels.get_backend",)
    m["kernels.calls"] = by_prefix(calls, "kernels.", skip=kernel_skip)
    m["kernels.self_s"] = by_prefix(own, "kernels.", skip=kernel_skip)
    m["kernels.load_s"] = load_s
    for engine in ("reference", "batched", "compiled"):
        m[f"simulation.{engine}.self_s"] = own[f"simulation.{engine}"]
    m["simulation.events"] = counts["simulation.events"]
    m["simulation.events_per_s"] = (
        counts["simulation.events"] / counts["simulation.event_s"]
        if counts["simulation.event_s"] else 0.0)
    m["simulation.multihop.self_s"] = own["simulation.multihop"]
    m["baselines.self_s"] = by_prefix(own, "baselines.")
    m["analysis.self_s"] = by_prefix(own, "analysis.")
    m["scenarios.runs"] = calls["scenarios.run_scenario"]
    m["scenarios.self_s"] = by_prefix(own, "scenarios.")
    m["topology.self_s"] = by_prefix(own, "topology.")
    m["workloads.self_s"] = by_prefix(own, "workloads.")
    m["shard.plan_s"] = inclusive["shard.build_plan"]
    m["shard.self_s"] = by_prefix(own, "shard.", skip=("shard.build_plan",))
    m["shard.windows"] = counts["shard.windows"]
    m["shard.msgs"] = counts["shard.msgs"]
    m["runner.pool.call_s"] = inclusive["runner.pool.call"]
    m["runner.pool.wait_s"] = inclusive["runner.pool.result"]
    m["runner.cache.get_s"] = inclusive["runner.cache.get"]
    m["runner.cache.put_s"] = inclusive["runner.cache.put"]
    lookups = counts["runner.cache.lookups"]
    m["runner.cache.hit_ratio"] = (
        counts["runner.cache.hits"] / lookups if lookups else 0.0)
    serve = serve or {}
    for name in ("queue_wait_ms", "exec_ms", "dedup_ratio", "computed",
                 "failed"):
        m[f"serve.{name}"] = serve.get(name, 0.0)
    for kind in OBS_EVENT_KINDS:
        m[f"obs.events.{kind}"] = counts[f"obs.events.{kind}"]
    m["obs.trace_overhead_frac"] = overhead_frac
    if tuple(m) != PER_LAYER:
        raise RuntimeError("per-layer metric set drifted from PER_LAYER")
    return m


def serve_layer(trace_events: list[list[dict]], counters: dict) -> dict:
    """The ``serve.*`` numbers from job trace streams and server counters.

    ``trace_events`` holds one list of trace records per job; queue wait
    runs from ``job_queued`` to ``job_started``, execution is the
    ``job_finished`` value of a computed job.  Both are medians in ms.
    """
    waits, execs = [], []
    for records in trace_events:
        queued = next((r["t"] for r in records if r["kind"] == "job_queued"),
                      None)
        started = next((r["t"] for r in records
                        if r["kind"] == "job_started"), None)
        if queued is not None and started is not None:
            waits.append(1e3 * (started - queued))
        for r in records:
            if r["kind"] == "job_finished" and r.get("detail") != "cache":
                execs.append(1e3 * r["value"])
    submitted = counters.get("serve.submitted", 0)
    deduped = (counters.get("serve.dedup.inflight", 0)
               + counters.get("serve.dedup.cache", 0))
    return {
        "queue_wait_ms": statistics.median(waits) if waits else 0.0,
        "exec_ms": statistics.median(execs) if execs else 0.0,
        "dedup_ratio": deduped / submitted if submitted else 0.0,
        "computed": counters.get("serve.computed", 0),
        "failed": counters.get("serve.failed", 0),
    }
