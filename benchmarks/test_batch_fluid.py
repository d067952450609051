"""Bench B — the vectorized batch fluid kernel vs the solve_ivp reference.

Two paired workloads, each timed with the batch kernel and with the
per-trajectory ``solve_ivp`` path it replaces:

* **portrait_bundle** — a fig4-style bundle of 64 orbits (the ISSUE's
  macrobenchmark; the committed ``BENCH_fluid.json`` must show ≥ 5×);
* **return_map_scan** — the 25-ordinate bracket scan behind
  ``find_limit_cycle``.

Every test tags ``benchmark.extra_info`` with ``workload``/``engine``
and the integrated ``trajectory_seconds``; ``tools/bench_report.py``
pairs the engines per workload, computes ns per trajectory-second and
the speedup, and fails when the batch kernel is slower than the
reference (``--min-speedup``, CI default 1.0 to absorb runner noise —
regenerate the committed report on quiet hardware).
"""

import numpy as np

from repro.core.limit_cycle import return_map
from repro.experiments.presets import CASE1_SLOW
from repro.fluid.batch import batch_return_map, simulate_fluid_batch
from repro.fluid.integrate import simulate_fluid

# fig4-style macro workload: one bundle of Case-1 orbits
N_ORBITS = 64
T_MAX = 20.0
MAX_SWITCHES = 12

# limit-cycle bracket-scan workload (find_limit_cycle's default grid)
N_ORDINATES = 25


def _bundle_starts(p):
    return np.linspace(-0.9, -0.1, N_ORBITS) * p.q0


def test_bench_portrait_bundle_batch(benchmark):
    p = CASE1_SLOW
    x0 = _bundle_starts(p)

    result = benchmark.pedantic(
        lambda: simulate_fluid_batch(
            p, x0, 0.0, t_max=T_MAX, max_switches=MAX_SWITCHES),
        rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="portrait_bundle", engine="batch",
        n_orbits=N_ORBITS, trajectory_seconds=N_ORBITS * T_MAX)
    assert result.n_rows == N_ORBITS
    assert int(result.switch_counts.min()) > 0


def test_bench_portrait_bundle_reference(benchmark):
    p = CASE1_SLOW
    x0 = _bundle_starts(p)

    def run():
        return [
            simulate_fluid(p, x0=x, y0=0.0, t_max=T_MAX,
                           max_switches=MAX_SWITCHES)
            for x in x0
        ]

    orbits = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        workload="portrait_bundle", engine="reference", baseline=True,
        n_orbits=N_ORBITS, trajectory_seconds=N_ORBITS * T_MAX)
    assert len(orbits) == N_ORBITS


def test_bench_return_map_scan_batch(benchmark):
    p = CASE1_SLOW
    ys = np.geomspace(1e-4, 0.95, N_ORDINATES) * p.capacity

    out = benchmark.pedantic(
        lambda: batch_return_map(p, ys), rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="return_map_scan", engine="batch",
        n_ordinates=N_ORDINATES)
    assert np.all((out > 0.0) & (out < ys))  # contraction everywhere


def test_bench_return_map_scan_reference(benchmark):
    p = CASE1_SLOW
    ys = np.geomspace(1e-4, 0.95, N_ORDINATES) * p.capacity

    out = benchmark.pedantic(
        lambda: [return_map(p, float(y)) for y in ys],
        rounds=1, iterations=1)
    benchmark.extra_info.update(
        workload="return_map_scan", engine="reference", baseline=True,
        n_ordinates=N_ORDINATES)
    assert len(out) == N_ORDINATES


def test_bench_batch_single_row(benchmark):
    """M=1 overhead floor: the batch kernel on one trajectory."""
    p = CASE1_SLOW

    result = benchmark.pedantic(
        lambda: simulate_fluid_batch(
            p, np.array([-0.8 * p.q0]), 0.0, t_max=T_MAX,
            max_switches=MAX_SWITCHES),
        rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="single_row", engine="batch",
        n_orbits=1, trajectory_seconds=T_MAX)
    assert int(result.switch_counts[0]) > 0
