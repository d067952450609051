"""Bench O — observability overhead on the committed macro workloads.

Each workload from the committed BENCH reports runs in three variants:

* **baseline** — the exact call the committed bench makes (no ``obs``
  argument at all);
* **obs_disabled** — ``obs=Observability.disabled()``: the handle is
  passed but every consumer stores it as ``None``, so this measures the
  cost of the plumbing (the extra kwarg and the ``is not None`` checks
  on the hot paths);
* **obs_enabled** — a live :class:`~repro.obs.Observability` collecting
  metrics, spans and the full event trace.

The three variants are timed **interleaved inside one test** (round-
robin, compared on per-variant minimum wall time) rather than as one
pytest-benchmark block per variant: block-per-variant structure is
exposed to scheduler/thermal drift between blocks, which on shared
runners swamps the ~0% effect being measured.  The interleaved minimums
are tagged as ``extra_info["obs_overhead"]``; ``tools/bench_report.py``
folds them into the report's ``overheads`` section and, with
``--max-overhead``, fails when the ``obs_disabled`` variant exceeds the
baseline by more than the given fraction.  The committed
``BENCH_obs.json`` must show the disabled path within 2%; the CI gate
is looser to absorb residual noise.

Each test also tags ``extra_info["event_counts"]`` from an enabled run
so the report records what the workload did, and its ``engine`` and
``kernel_backend`` so the report says which code was timed.

The guard (:func:`test_obs_disabled_overhead_guard`) runs on both packet
engines.  The reference engine pays its ``obs is not None`` checks per
frame, so its workload runs a simulated horizon long enough (about half
a second of wall time per variant on a 2-core VM) for the interleaved
minimums to resolve a few percent.
"""

import time

import numpy as np
import pytest

from repro.core.parameters import paper_example_params
from repro.experiments.presets import CASE1_SLOW
from repro.fluid.batch import simulate_fluid_batch
from repro.kernels import get_backend
from repro.obs import Observability
from repro.simulation.network import BCNNetworkSimulator

ROUNDS = 9

# portrait_bundle workload, exactly as benchmarks/test_batch_fluid.py
N_ORBITS = 64
T_MAX = 20.0
MAX_SWITCHES = 12

# dumbbell_message_mode workload, exactly as test_batched_packet.py
MSG_DURATION = 0.03

# dumbbell_reference workload: the same dumbbell on the event-driven
# reference engine, over a horizon long enough to time per variant;
# shared vCPUs swing its wall time by tens of percent, so its minimums
# take more rounds to settle
REF_DURATION = 0.05
REF_ROUNDS = 15


def _run_bundle(obs=None):
    p = CASE1_SLOW
    x0 = np.linspace(-0.9, -0.1, N_ORBITS) * p.q0
    kwargs = {} if obs is None else {"obs": obs}
    return simulate_fluid_batch(p, x0, 0.0, t_max=T_MAX,
                                max_switches=MAX_SWITCHES, **kwargs)


def _run_message(obs=None):
    kwargs = {} if obs is None else {"obs": obs}
    net = BCNNetworkSimulator(paper_example_params(), engine="batched",
                              **kwargs)
    return net.run(MSG_DURATION)


def _run_reference(obs=None):
    kwargs = {} if obs is None else {"obs": obs}
    net = BCNNetworkSimulator(paper_example_params(), engine="reference",
                              **kwargs)
    return net.run(REF_DURATION)


def _interleaved_mins(run, rounds=ROUNDS):
    """Round-robin the three variants, returning per-variant min walls."""
    variants = {
        "baseline": lambda: run(),
        "obs_disabled": lambda: run(Observability.disabled()),
        "obs_enabled": lambda: run(Observability()),
    }
    run()  # warm up
    mins = dict.fromkeys(variants, float("inf"))
    for _ in range(rounds):
        for name, call in variants.items():
            t0 = time.perf_counter()
            call()
            mins[name] = min(mins[name], time.perf_counter() - t0)
    return {f"{name}_s": wall for name, wall in mins.items()}


def _tag(benchmark, workload, engine, run, rounds=ROUNDS):
    obs = Observability()
    run(obs)
    benchmark.extra_info.update(
        workload=workload,
        engine=engine,
        kernel_backend=get_backend().name,
        obs_overhead=_interleaved_mins(run, rounds),
        event_counts=obs.event_counts(),
    )


def test_bench_obs_bundle(benchmark):
    res = benchmark.pedantic(_run_bundle, rounds=3, iterations=1)
    _tag(benchmark, "portrait_bundle", "batch", _run_bundle)
    assert res.n_rows == N_ORBITS
    counts = benchmark.extra_info["event_counts"]
    assert counts["region_switch"] > 0


def test_bench_obs_message(benchmark):
    res = benchmark.pedantic(_run_message, rounds=3, iterations=1)
    # the 15 ms workload needs more rounds for its minimums to settle
    _tag(benchmark, "dumbbell_message_mode", "batched", _run_message,
         rounds=40)
    assert res.bcn_negative > 0
    counts = benchmark.extra_info["event_counts"]
    assert counts["bcn"] == res.bcn_negative + res.bcn_positive


def test_bench_obs_reference(benchmark):
    res = benchmark.pedantic(_run_reference, rounds=3, iterations=1)
    _tag(benchmark, "dumbbell_reference", "reference", _run_reference,
         rounds=REF_ROUNDS)
    assert res.bcn_negative > 0
    counts = benchmark.extra_info["event_counts"]
    assert counts["bcn"] == res.bcn_negative + res.bcn_positive


@pytest.mark.parametrize("run, rounds", [
    pytest.param(_run_reference, REF_ROUNDS, id="reference"),
    # the ~5 ms batched workload needs more rounds for its minimums
    pytest.param(_run_message, 40, id="batched"),
])
def test_obs_disabled_overhead_guard(run, rounds):
    """Assert the disabled path costs nothing beyond CI noise margin.

    The true disabled-path cost is one ``is not None`` check per run on
    the batched engine and per frame on the reference engine (the
    handle is stored as ``None`` by every consumer), so the tolerance
    here is pure noise margin — an accidentally-live collection path
    costs well over 10% on these workloads and trips the guard.
    """
    mins = _interleaved_mins(run, rounds)
    ratio = mins["obs_disabled_s"] / mins["baseline_s"]
    assert ratio <= 1.10, f"obs-disabled min overhead {ratio - 1:+.1%}"
