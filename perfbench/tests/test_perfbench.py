"""The benchmark's own tests: span arithmetic, wrapper hygiene, checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import sys
import threading
from pathlib import Path

import pytest

import layers
import workloads
from tracer import Span, Tracer, covered, load_dump, self_times

ROOT = Path(__file__).resolve().parents[2]


def span(sid, parent, start, end, name="x"):
    return Span(sid, parent, 0, name, start, end)


# -- self-time arithmetic -----------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4)
    assert covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2)
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_child_coverage():
    spans = [
        span(1, None, 0.0, 10.0),   # root
        span(2, 1, 1.0, 4.0),       # child
        span(3, 2, 2.0, 3.0),       # grandchild: not subtracted from root
        span(4, 1, 5.0, 6.0),       # second child
        span(5, 1, 5.5, 7.0),       # overlapping child (another thread)
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - 3 - 2)
    assert selfs[2] == pytest.approx(3 - 1)
    assert selfs[3] == pytest.approx(1)
    assert selfs[4] == pytest.approx(1)
    assert selfs[5] == pytest.approx(1.5)


def test_recorded_spans_nest_per_thread(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer_span,) = by_name["outer"]
    parents = sorted(s.parent or 0 for s in by_name["inner"])
    assert parents == [0, outer_span.sid]
    tracer.dump(tmp_path / "spans.jsonl")
    spans, _ = load_dump(tmp_path / "spans.jsonl")
    assert spans == tracer.spans


def test_layer_metrics_use_self_time():
    spans = [
        span(1, None, 0.0, 4.0, "experiments.fig7"),
        span(2, 1, 0.0, 1.0, "core.amplitude_scan"),
        span(3, 2, 0.0, 0.75, "fluid.simulate_fluid_batch"),
    ]
    m = layers.layer_metrics([(spans, {})], serve=None, overhead_frac=0.1)
    assert tuple(m) == layers.PER_LAYER
    assert m["experiments.fig7.s"] == pytest.approx(4.0)
    assert m["core.self_s"] == pytest.approx(0.25)
    assert m["fluid.self_s"] == pytest.approx(0.75)
    assert m["core.calls"] == 1
    assert m["obs.trace_overhead_frac"] == pytest.approx(0.1)


# -- wrapper hygiene ----------------------------------------------------------


def _bindings():
    """Every repro.* module attribute and class attribute the tracer
    could replace, by identity."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            snapshot[(name, attr)] = value
            if isinstance(value, type):
                for key, member in list(vars(value).items()):
                    snapshot[(name, attr, key)] = member
    from repro.experiments import base
    for eid, fn in base._REGISTRY.items():
        snapshot[("registry", eid)] = fn
    return snapshot


def _lookup(key):
    if key[0] == "registry":
        from repro.experiments import base
        return base._REGISTRY[key[1]]
    value = vars(sys.modules[key[0]])[key[1]]
    return vars(value)[key[2]] if len(key) == 3 else value


def test_install_then_uninstall_restores_every_binding():
    tracer = Tracer()
    layers.install(tracer)   # imports every layer first
    tracer.uninstall()
    before = _bindings()
    layers.install(tracer)
    patched = tracer.installed
    import repro.scenarios
    assert getattr(repro.scenarios.run_scenario, "__wrapped_by_tracer__",
                   False)
    tracer.uninstall()
    assert patched > 40
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if _lookup(k) is not before[k]]
    assert changed == []


def test_untraced_phases_install_no_wrapper(monkeypatch, tmp_path):
    def refuse(_tracer):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(layers, "install", refuse)
    ctx = workloads.Context(seed=1, seconds=0.0, trace=False,
                            work_dir=tmp_path)
    workloads.load_backend(ctx)
    seen = []

    def one_pass(_i):
        import repro.scenarios
        seen.append(hasattr(repro.scenarios.run_scenario,
                            "__wrapped_by_tracer__"))
        return {"pass_s": 1.0, "slow_path_ms": 1.0, "fast_path_ms": 1.0}

    outcome = workloads.Outcome([], engines=[])
    workloads.measure(ctx, outcome, one_pass, "a", "b")
    assert outcome.per_layer is None
    assert seen == [False]
    assert ctx.tracer.spans == [] and ctx.tracer.installed == 0


# -- injected failures reach fail_frac ----------------------------------------


def test_failing_verdict_counts_as_failed(monkeypatch, tmp_path):
    import repro.runner
    from repro.experiments.base import ExperimentResult

    def fake_run_experiments(**_kwargs):
        good = ExperimentResult("t1", "ok", verdicts={"holds": True})
        bad = ExperimentResult("t1", "bad", verdicts={"holds": False})
        return [("t1", good), ("t1", bad)]

    monkeypatch.setattr(workloads, "time_probe", lambda kind: 0.5)
    monkeypatch.setattr(repro.runner, "run_experiments",
                        fake_run_experiments)
    ctx = workloads.Context(seed=1, seconds=0.0, trace=False,
                            work_dir=tmp_path)
    outcome = workloads.paper_repro(ctx)
    assert outcome.attempted == 2
    assert len(outcome.failures) == 1
    assert "verdicts ['holds']" in outcome.failures[0]


class _FakeClient:
    def __init__(self, envelope):
        self.envelope = envelope

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def submit(self, job, wait):
        return {"state": "done", "result": self.envelope}


class _FakeServer:
    def __init__(self, envelope):
        self.envelope = envelope

    def client(self):
        return _FakeClient(self.envelope)


def test_mismatched_warm_envelope_counts_as_failed():
    stream = workloads.JobStream(1, ["dc-baseline", "incast-32"])
    outcome = workloads.Outcome([], engines=[])
    primed = [json.dumps({"payload": 1}, sort_keys=True)] * len(stream.pool)
    workloads._closed_loop(_FakeServer({"payload": 2}), stream, 0.05,
                           primed, outcome)
    assert outcome.attempted > 0
    assert outcome.failures
    assert all("warm envelope differs" in f for f in outcome.failures)


def test_matching_warm_envelope_passes():
    stream = workloads.JobStream(1, ["dc-baseline"])
    outcome = workloads.Outcome([], engines=[])
    primed = [json.dumps({"payload": 1}, sort_keys=True)] * len(stream.pool)
    workloads._closed_loop(_FakeServer({"payload": 1}), stream, 0.05,
                           primed, outcome)
    assert outcome.attempted > 0 and outcome.failures == []


# -- the job stream and BENCHMARK.json agree with the code --------------------


def test_job_stream_is_seeded_and_cold_seeds_are_fresh():
    a = workloads.JobStream(5, ["p", "q"])
    b = workloads.JobStream(5, ["p", "q"])
    cold_a = [a.cold() for _ in range(12)]
    assert cold_a == [b.cold() for _ in range(12)]
    assert [a.warm() for _ in range(5)] == [0, 1, 2, 3, 0]
    seeds = [s for job in cold_a for s in job.get("seeds", [job.get("seed")])]
    pool_seeds = [s for job in a.pool
                  for s in job.get("seeds", [job.get("seed")])]
    assert len(set(seeds + pool_seeds)) == len(seeds + pool_seeds)


def test_closed_loop_runs_rounds_of_one_cold_and_three_warm():
    stream = workloads.JobStream(1, ["dc-baseline", "incast-32"])
    outcome = workloads.Outcome([], engines=[])
    primed = [json.dumps({"payload": 1}, sort_keys=True)] * len(stream.pool)
    loop = workloads._closed_loop(_FakeServer({"payload": 1}), stream, 0.05,
                                  primed, outcome)
    kinds = [kind for kind, _ in loop["samples"]]
    assert kinds.count("warm") == 3 * kinds.count("cold") > 0


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    run = __import__("run")
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
