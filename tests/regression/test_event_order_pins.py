"""Exact pins for the packet runs that write no golden series.

m1 and v5 emit tables and verdicts but no ``series_out/`` CSV, and the
serial fabric is otherwise only compared against the sharded engine
within tolerances.  These runs go through the reference event kernel
frame by frame, so any change to the order in which it pops
``(time, seq)`` keys shows up here as a changed counter.  A kernel
refactor must leave every value bit for bit; a deliberate model change
re-captures them and says which change moved them.
"""

import numpy as np
import pytest

from repro.experiments.base import get_experiment
from repro.simulation.multihop import MultiHopNetwork, PortConfig
from repro.topology.graphs import fat_tree
from repro.workloads import incast, permutation

M1_ROWS = [
    ["pause-only", 2.0, 249.96, 16639, 27606],
    ["bcn", 248.96, 249.24, 55, 0],
]

V5_ROWS = [
    ["flows in trace", 119],
    ["offered bits (Mbit)", 141.25433487882626],
    ["elephant byte share", 0.14717957707548876],
    ["mice completion fraction", 1.0],
    ["elephants completed", "28/28"],
    ["mice FCT p50 (ms)", 1.1669999999998626],
    ["elephant FCT p50 (ms)", 4.5269999999993304],
    ["drops", 0],
    ["negative BCN", 17],
    ["hottest port", "p1a1->core3"],
    ["flows sharing it", 8],
]


@pytest.mark.parametrize("experiment_id, rows, verdicts", [
    ("m1", M1_ROWS, ["pause_actually_fired", "bcn_regulated_aggressors",
                     "victim_protected_by_bcn",
                     "victim_near_demand_under_bcn"]),
    ("v5", V5_ROWS, ["most_mice_complete", "mice_much_faster_than_elephants",
                     "bcn_engaged", "loss_fraction_small",
                     "hotspot_is_heavily_shared"]),
])
def test_experiment_table_is_pinned(experiment_id, rows, verdicts):
    result = get_experiment(experiment_id)(render_plots=False)
    assert result.table_rows == rows
    assert result.verdicts == dict.fromkeys(verdicts, True)


FRAME_BITS = 12_000
DURATION = 3e-4


def _fat_tree_run(traffic):
    graph = fat_tree(4, capacity=10e9)
    hosts = sorted(n for n, d in graph.nodes(data=True)
                   if d.get("kind") == "host")
    if traffic == "permutation":
        config = PortConfig(q0=8 * FRAME_BITS, buffer_bits=60 * FRAME_BITS)
        flows = permutation(hosts, demand=6e9, rounds=2)
    else:
        config = PortConfig(q0=8 * FRAME_BITS, buffer_bits=40 * FRAME_BITS,
                            q_sc=20 * FRAME_BITS, pm=0.05)
        flows = incast(hosts[1:], hosts[0], response_bits=5e5, demand=5e9)
    network = MultiHopNetwork(graph, flows, config, frame_bits=FRAME_BITS,
                              propagation_delay=1e-6)
    return network, network.run(DURATION)


FAT_TREE_PINS = {
    # 32 flows contending for inter-pod links: drops and both BCN signs
    "permutation": dict(
        delivered=[
            1752000.0, 1500000.0, 1536000.0, 720000.0, 1752000.0, 1416000.0,
            1536000.0, 720000.0, 1752000.0, 720000.0, 1752000.0, 720000.0,
            1752000.0, 1548000.0, 1572000.0, 720000.0, 1416000.0, 1368000.0,
            1164000.0, 972000.0, 1500000.0, 1368000.0, 1164000.0, 972000.0,
            1188000.0, 984000.0, 1164000.0, 972000.0, 1368000.0, 1380000.0,
            1164000.0, 972000.0,
        ],
        bcn_negative=29, bcn_positive=2, pauses=0, dropped=425,
        events=25219, queue_sum=22584000.0,
    ),
    # 15 senders into one host with PAUSE armed: pauses, BCN and drops
    "incast": dict(
        delivered=[
            444000.0, 228000.0, 252000.0, 72000.0, 72000.0, 72000.0,
            60000.0, 84000.0, 96000.0, 120000.0, 108000.0, 72000.0,
            120000.0, 72000.0, 228000.0,
        ],
        bcn_negative=50, bcn_positive=0, pauses=142, dropped=5,
        events=3737, queue_sum=23196000.0,
    ),
}


@pytest.mark.parametrize("traffic", sorted(FAT_TREE_PINS))
def test_serial_fat_tree_counters_are_pinned(traffic):
    network, result = _fat_tree_run(traffic)
    pin = FAT_TREE_PINS[traffic]
    delivered = result.per_flow_delivered_bits
    assert [delivered[f] for f in sorted(delivered)] == pin["delivered"]
    assert result.bcn_negative == pin["bcn_negative"]
    assert result.bcn_positive == pin["bcn_positive"]
    assert result.pauses == pin["pauses"]
    assert result.dropped_frames == pin["dropped"]
    assert network.sim.events_processed == pin["events"]
    queue_sum = sum(float(np.sum(q)) for q in result.port_queues.values())
    assert queue_sum == pin["queue_sum"]
