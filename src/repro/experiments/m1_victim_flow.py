"""M1 (extension) — the victim-flow motivation of Section I.

The paper motivates end-to-end congestion management with the failure
mode of hop-by-hop PAUSE: "the congestion can roll back from switch to
switch, affecting flows that do not contribute to the congestion, but
happen to share a link with flows that do."

Scenario: on a two-tier fabric, a set of aggressor flows congests one
output port; a *victim* flow shares the aggressors' ingress link but
exits through an uncongested port.  Compared configurations:

* **PAUSE-only** (no BCN): the congested port's PAUSE silences the
  shared upstream entirely — the victim is collateral damage;
* **BCN** (no PAUSE): rate regulation targets only the flows the
  congestion point actually sampled — the victim keeps its throughput.

Verdicts: the victim's goodput under BCN exceeds its goodput under
PAUSE-only by a clear factor, while both configurations protect the
congested port's buffer.
"""

from __future__ import annotations

import networkx as nx

from ..simulation.multihop import MultiHopNetwork, PortConfig
from ..workloads.flows import FlowSpec
from .base import ExperimentResult, register

__all__ = ["run"]

CAPACITY = 1e9


def _two_port_fabric() -> nx.Graph:
    """Hosts h0..h3 -> switch s0 -> switch s1 -> {hot, cool} sinks."""
    g = nx.Graph(name="victim-demo")
    for node, kind, layer in [
        ("s0", "edge", 1), ("s1", "core", 2),
        ("hot", "host", 0), ("cool", "host", 0),
    ]:
        g.add_node(node, kind=kind, layer=layer)
    g.add_edge("s0", "s1", capacity=CAPACITY)
    g.add_edge("s1", "hot", capacity=CAPACITY / 4)  # the congested port
    g.add_edge("s1", "cool", capacity=CAPACITY)
    for i in range(4):
        g.add_node(f"h{i}", kind="host", layer=0)
        g.add_edge(f"h{i}", "s0", capacity=CAPACITY)
    return g


def _flows() -> list[FlowSpec]:
    aggressors = [
        FlowSpec(flow_id=i, src=f"h{i}", dst="hot", demand=CAPACITY / 2)
        for i in range(3)
    ]
    victim = FlowSpec(flow_id=3, src="h3", dst="cool", demand=CAPACITY / 4)
    return aggressors + [victim]


def _run_config(*, enable_bcn: bool, enable_pause: bool):
    fabric = _two_port_fabric()
    config = PortConfig(
        q0=100e3,
        buffer_bits=1.5e6,
        # pm -> 0 effectively disables BCN (one sample per 1e9 frames)
        pm=0.05 if enable_bcn else 1e-9,
        q_sc=1.2e6 if enable_pause else None,
        min_rate=5e6,
        regulator_mode="message",
    )
    network = MultiHopNetwork(fabric, _flows(), config,
                              propagation_delay=1e-6)
    return network.run(0.3)


@register("m1")
def run(*, render_plots: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="m1",
        title="Victim flow: PAUSE-only congestion spreading vs BCN",
        table_headers=["config", "victim goodput (Mb/s)",
                       "aggressor goodput (Mb/s)", "drops", "pauses"],
    )

    pause_only = _run_config(enable_bcn=False, enable_pause=True)
    bcn = _run_config(enable_bcn=True, enable_pause=False)

    def victim_goodput(res):
        return res.flow_throughput(3)

    def aggressor_goodput(res):
        return sum(res.flow_throughput(i) for i in range(3))

    for name, res in (("pause-only", pause_only), ("bcn", bcn)):
        result.table_rows.append([
            name,
            victim_goodput(res) / 1e6,
            aggressor_goodput(res) / 1e6,
            res.dropped_frames,
            res.pauses,
        ])

    v_pause = victim_goodput(pause_only)
    v_bcn = victim_goodput(bcn)
    result.verdicts["pause_actually_fired"] = pause_only.pauses > 0
    result.verdicts["bcn_regulated_aggressors"] = bcn.bcn_negative > 0
    result.verdicts["victim_protected_by_bcn"] = v_bcn > 1.5 * v_pause
    # the victim's own path is uncongested: BCN should leave it at
    # (close to) full demand
    result.verdicts["victim_near_demand_under_bcn"] = (
        v_bcn > 0.5 * CAPACITY / 4
    )
    result.notes.append(
        "PAUSE silences the shared s0->s1 link wholesale, starving the "
        "victim; BCN's per-flow rate regulation leaves it untouched — "
        "the Section I argument, measured."
    )
    return result
