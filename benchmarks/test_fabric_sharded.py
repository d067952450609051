"""Bench F — the sharded conservative-parallel fabric engine vs serial.

Paired workloads, each run serially (``engine="reference"``) and through
the ``repro.shard`` conservative window-stepper on
:class:`repro.simulation.multihop.MultiHopNetwork`:

* **fabric_fat_tree_k8** — an 8-ary fat-tree (128 hosts, 80 switches)
  under two rounds of fabric-wide permutation traffic at 4 Gb/s per
  flow; pods partition cleanly, so this is the workload the sharded
  engine is built for and the one whose speedup the CI gate watches;
* **fabric_dcell_4_1** — a DCell(4, 1) fabric (20 hosts) under four
  congested permutation rounds.  DCell's cross-cell links are
  host-to-host, so ~60% of the flows cross shards and the barrier wire
  carries frames *and* BCN/PAUSE control — the deliberately adversarial
  partitioning case.  Its pair documents that the conservative engine's
  overhead stays bounded (the 0.8 gate floor), not a speedup.

The timed region covers construction plus the run — for the sharded
rows that includes partitioning, worker spawn and every window-barrier
exchange, so the speedup is end to end, not kernel-only.

The sharded rows use ``workers = min(4, cpu_count)``: the committed
report is honest about the hardware that produced it (the ``machine``
section records the core count).  On a single-core box the coordinator
falls back to the inline window-stepper and the fat-tree speedup
records only the smaller-heap/O(1)-forwarding win; the >= 3x target
for ``fat_tree(k=8)`` at 4 workers needs four physical cores — the CI
fabric job regenerates this report on multi-core runners under a
noise-tolerant ``--min-speedup`` gate.

Every test tags ``benchmark.extra_info`` with ``workload``/``engine``
and ``simulated_seconds``; ``tools/bench_report.py`` pairs the engines
per workload and computes ns per simulated second and the speedup.  The
sharded tests rerun once under an :class:`~repro.obs.Observability`
handle (outside the timed region) and tag ``event_counts`` — counters
merge commutatively across shards, so the totals are exact.
"""

import os

from repro.obs import Observability
from repro.simulation.multihop import MultiHopNetwork, PortConfig
from repro.topology.graphs import dcell, fat_tree
from repro.workloads import permutation

FRAME_BITS = 1500 * 8
DELAY = 5e-6
DURATION = 2e-3

#: Parallel workers for the sharded rows, capped by the machine.
WORKERS = max(1, min(4, os.cpu_count() or 1))


def _hosts(graph):
    return sorted(
        n for n, d in graph.nodes(data=True) if d.get("kind") == "host"
    )


def _run_fat_tree(obs=None, **kwargs):
    g = fat_tree(8, capacity=10e9)
    flows = permutation(_hosts(g), demand=4e9, rounds=2)
    cfg = PortConfig(q0=8 * FRAME_BITS, buffer_bits=150 * FRAME_BITS)
    net = MultiHopNetwork(g, flows, cfg, frame_bits=FRAME_BITS,
                          propagation_delay=DELAY, obs=obs, **kwargs)
    return net.run(DURATION)


def _run_dcell(obs=None, **kwargs):
    g = dcell(4, 1, capacity=10e9)
    flows = permutation(_hosts(g), demand=2e9, rounds=4)
    cfg = PortConfig(q0=8 * FRAME_BITS, buffer_bits=150 * FRAME_BITS)
    net = MultiHopNetwork(g, flows, cfg, frame_bits=FRAME_BITS,
                          propagation_delay=DELAY, obs=obs, **kwargs)
    return net.run(DURATION)


def _event_counts(run, **kwargs):
    obs = Observability()
    run(obs=obs, **kwargs)
    return obs.event_counts()


def test_bench_fabric_fat_tree_sharded(benchmark):
    kwargs = dict(shards=8, workers=WORKERS)
    res = benchmark.pedantic(lambda: _run_fat_tree(**kwargs),
                             rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="fabric_fat_tree_k8", engine="sharded",
        simulated_seconds=DURATION, shards=8, workers=WORKERS,
        event_counts=_event_counts(_run_fat_tree, **kwargs))
    assert sum(res.per_flow_delivered_bits.values()) > 0


def test_bench_fabric_fat_tree_reference(benchmark):
    res = benchmark.pedantic(lambda: _run_fat_tree(),
                             rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="fabric_fat_tree_k8", engine="reference", baseline=True,
        simulated_seconds=DURATION)
    assert sum(res.per_flow_delivered_bits.values()) > 0


def test_bench_fabric_dcell_sharded(benchmark):
    kwargs = dict(shards=4, workers=WORKERS)
    res = benchmark.pedantic(lambda: _run_dcell(**kwargs),
                             rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="fabric_dcell_4_1", engine="sharded",
        simulated_seconds=DURATION, shards=4, workers=WORKERS,
        event_counts=_event_counts(_run_dcell, **kwargs))
    assert sum(res.per_flow_delivered_bits.values()) > 0


def test_bench_fabric_dcell_reference(benchmark):
    res = benchmark.pedantic(lambda: _run_dcell(),
                             rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="fabric_dcell_4_1", engine="reference", baseline=True,
        simulated_seconds=DURATION)
    assert sum(res.per_flow_delivered_bits.values()) > 0
