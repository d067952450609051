"""Driving a BCN fabric with a realistic (heavy-tailed) traffic trace.

Generates a synthetic trace — Poisson flow arrivals with bounded-Pareto
sizes, the standard stand-in for production data-center traces — and
replays it on a k=4 fat-tree with BCN at every port, reporting the
numbers an operator would look at: flow-completion times by size class,
hotspots, losses, and where the control plane actually worked.

Run with::

    python examples/trace_driven_fabric.py
"""

import numpy as np

from repro.obs import Observability
from repro.simulation import MultiHopNetwork, PortConfig
from repro.topology import fat_tree, hosts
from repro.viz import format_table
from repro.workloads import TraceConfig, generate_trace


def main() -> None:
    capacity = 1e9
    fabric = fat_tree(4, capacity=capacity)
    all_hosts = hosts(fabric)

    trace = generate_trace(
        TraceConfig(
            arrival_rate=500.0,
            mean_size_bits=1.5e6,
            horizon=0.3,
            pareto_shape=1.3,
            max_size_bits=2e7,
            demand=capacity / 2,
            seed=42,
        ),
        all_hosts,
    )
    print(f"trace: {trace.n_flows} flows, {trace.total_bits() / 1e6:.0f} Mbit "
          f"offered, elephants carry "
          f"{trace.elephant_share(threshold_bits=8e6):.0%} of bytes")

    config = PortConfig(q0=100e3, buffer_bits=1.2e6, pm=0.05, min_rate=10e6)
    # every port narrates its control plane (bcn / pause / drop) here
    obs = Observability(max_trace_events=20_000)
    network = MultiHopNetwork(fabric, trace.flows, config,
                              propagation_delay=1e-6, obs=obs)
    result = network.run(0.5)

    # FCT by size class
    buckets = [("mice  (<1 Mbit)", 0.0, 1e6),
               ("medium (1-8 Mbit)", 1e6, 8e6),
               ("elephants (>8 Mbit)", 8e6, float("inf"))]
    rows = []
    for label, lo, hi in buckets:
        fcts = [
            result.flow_completion_time(f.flow_id) * 1e3
            for f in trace.flows
            if lo <= (f.size_bits or 0) < hi
            and result.flow_completion_time(f.flow_id) is not None
        ]
        total = sum(1 for f in trace.flows if lo <= (f.size_bits or 0) < hi)
        if fcts:
            rows.append([label, f"{len(fcts)}/{total}",
                         float(np.median(fcts)),
                         float(np.percentile(fcts, 95))])
        else:
            rows.append([label, f"0/{total}", "-", "-"])
    print()
    print(format_table(
        ["class", "completed", "FCT p50 (ms)", "FCT p95 (ms)"], rows))

    hot = result.hottest_port()
    print(f"\nhottest port: {hot[0]}->{hot[1]} "
          f"(peak queue {float(result.port_queues[hot].max()) / 1e3:.0f} kbit)")
    print(f"drops: {result.dropped_frames}   "
          f"negative BCN: {result.bcn_negative}   "
          f"positive BCN: {result.bcn_positive}")

    busy_ports = sum(
        1 for series in result.port_queues.values() if series.max() > 0)
    print(f"ports that ever queued: {busy_ports}/{len(result.port_queues)} "
          "(congestion stays local; BCN's point)")
    node = f"{hot[0]}->{hot[1]}"
    records = [r for r in obs.trace.records if r.node == node]
    counts: dict[str, int] = {}
    for r in records:
        counts[r.kind] = counts.get(r.kind, 0) + 1
    kinds = ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
    span = (f" over [{records[0].t:.6f}, {records[-1].t:.6f}]s"
            if records else "")
    print(f"traced port sample: {node}: {len(records)} events "
          f"({kinds}){span}")


if __name__ == "__main__":
    main()
