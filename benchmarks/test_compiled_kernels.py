"""Bench C — the compiled kernel tier vs the numpy tier of the same engine.

The batched packet engine and the batch fluid integrator each run on
whichever kernel tier the platform offers (:mod:`repro.kernels`).  These
paired workloads time one engine on both tiers, so the gate here is
compiled-vs-vectorized, not compiled-vs-interpreted (the batched engine
on numpy is itself already ≥ 5× over the event-driven reference, see
``BENCH_packet.json``):

* **compiled_dumbbell_fluid_vs_packet** — the V2 validation
  configuration (fluid-exact regulator, Bernoulli sampling, no PAUSE)
  on a 0.2 s horizon through ``engine="batched"``.  Exercises the full
  window pipeline: pacing plan/commit, train merge, packet plan/commit
  and the struct-of-array message kernel, all through the bound-closure
  API.
* **compiled_portrait_bundle** — a 64-trajectory phase-portrait bundle
  (CASE1, nonlinear mode, 40 s horizon) through
  :func:`~repro.fluid.batch.simulate_fluid_batch`'s RK4 kernel.

Each baseline row runs inside :func:`numpy_tier`, which injects the
pure-numpy :class:`~repro.kernels.KernelBackend`, and carries
``extra_info["baseline"] = True``; every row records its real
``engine`` and ``kernel_backend``.  The compiled rows also tag
``event_counts`` (packet) or the bundle's switch totals (fluid) so the
committed ``BENCH_compiled.json`` records what the workloads did.  The
module skips when the platform has no compiled tier.

Regenerate the committed report with::

    python -m pytest benchmarks/test_compiled_kernels.py \
        --benchmark-json /tmp/compiled_raw.json
    python tools/bench_report.py /tmp/compiled_raw.json \
        -o BENCH_compiled.json --min-speedup 3.0
"""

import contextlib

import numpy as np
import pytest

from repro.experiments.presets import CASE1
from repro.experiments.v2_fluid_vs_packet import validation_params
from repro.fluid.batch import simulate_fluid_batch
from repro.kernels import KernelBackend, _backend, get_backend
from repro.obs import Observability
from repro.simulation.network import BCNNetworkSimulator

pytestmark = pytest.mark.skipif(
    not get_backend().compiled,
    reason="no compiled backend (cffi + C compiler) available",
)

V2_DURATION = 0.2

V2_KWARGS = dict(
    frame_bits=1500,
    regulator_mode="fluid-exact",
    fb_bits=None,
    require_association=False,
    positive_only_below_q0=False,
    random_sampling=True,
    enable_pause=False,
)

FLUID_X0 = np.linspace(-0.9, 0.9, 64) * CASE1.q0
FLUID_KWARGS = dict(t_max=40.0, mode="nonlinear", max_switches=200)


@contextlib.contextmanager
def numpy_tier():
    """Run the body on the pure-numpy kernel tier."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_backend, "_BACKEND", KernelBackend())
        yield


def _run_v2(obs=None):
    net = BCNNetworkSimulator(validation_params(), engine="batched", obs=obs,
                              **V2_KWARGS)
    return net.run(V2_DURATION)


def _run_v2_numpy():
    with numpy_tier():
        return _run_v2()


def _fluid():
    return simulate_fluid_batch(CASE1, FLUID_X0, 0.0, **FLUID_KWARGS)


def _fluid_numpy():
    with numpy_tier():
        return _fluid()


# -- packet window pipeline -------------------------------------------------


def test_bench_dumbbell_compiled(benchmark):
    _run_v2()  # warm the backend outside the timed region
    res = benchmark.pedantic(_run_v2, rounds=5, iterations=1)
    obs = Observability()
    _run_v2(obs)
    benchmark.extra_info.update(
        workload="compiled_dumbbell_fluid_vs_packet", engine="batched",
        kernel_backend=get_backend().name,
        simulated_seconds=V2_DURATION,
        event_counts=obs.event_counts())
    assert res.forwarded_frames > 0
    assert 0.9 <= res.utilization() <= 1.0 + 1e-9


def test_bench_dumbbell_batched_baseline(benchmark):
    res = benchmark.pedantic(_run_v2_numpy, rounds=5, iterations=1)
    benchmark.extra_info.update(
        workload="compiled_dumbbell_fluid_vs_packet", engine="batched",
        kernel_backend="numpy", baseline=True,
        simulated_seconds=V2_DURATION)
    assert res.forwarded_frames > 0


# -- batch fluid RK4 kernel -------------------------------------------------


def test_bench_portrait_bundle_compiled(benchmark):
    _fluid()
    res = benchmark.pedantic(_fluid, rounds=5, iterations=1)
    benchmark.extra_info.update(
        workload="compiled_portrait_bundle", engine="batch",
        kernel_backend=get_backend().name,
        trajectory_seconds=40.0 * FLUID_X0.size,
        switch_total=int(res.switch_counts.sum()),
        converged=int(res.converged.sum()))
    assert res.x.shape[1] == FLUID_X0.size


def test_bench_portrait_bundle_numpy_baseline(benchmark):
    res = benchmark.pedantic(_fluid_numpy, rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="compiled_portrait_bundle", engine="batch",
        kernel_backend="numpy", baseline=True,
        trajectory_seconds=40.0 * FLUID_X0.size)
    assert res.x.shape[1] == FLUID_X0.size
