"""Unit tests for the sharding plan and per-shard runtime (repro.shard).

The differential suites prove the sharded engine *as a whole* matches
serial; these tests pin the pieces the proofs rest on — ownership
rules, the lookahead bound, multiplication-stable window edges, timed
event routing, the RemoteLink outbox protocol and the one-shard
runtime lifecycle.
"""

import math

import networkx as nx
import pytest

from repro.shard import RemoteLink, ShardRuntime, build_plan, resolve_shards
from repro.simulation.multihop import PortConfig
from repro.topology.graphs import fat_tree
from repro.topology.partition import Partition
from repro.workloads.flows import FlowSpec

DELAY = 1e-6
CONFIG_KW = dict(
    frame_bits=12_000, delay=DELAY, hop_level_pause=True,
    queue_dt=1e-5,
)


def chain_graph():
    """h0 - s1 - s2 - s3 - h1, 10G everywhere."""
    g = nx.Graph()
    for h in ("h0", "h1"):
        g.add_node(h, kind="host", layer=0)
    for s in ("s1", "s2", "s3"):
        g.add_node(s, kind="tor", layer=1)
    for u, v in (("h0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "h1")):
        g.add_edge(u, v, capacity=10e9)
    return g


CHAIN_ROUTE = ("h0", "s1", "s2", "s3", "h1")
CHAIN_FLOW = FlowSpec(flow_id=0, src="h0", dst="h1", demand=1e9,
                      route=CHAIN_ROUTE)
SPLIT = Partition(n_shards=2, assignment={
    "h0": 0, "s1": 0, "s2": 1, "s3": 1, "h1": 1,
})


def chain_plan(n_shards=2, partition=SPLIT, **overrides):
    kw = dict(CONFIG_KW)
    kw.update(overrides)
    return build_plan(chain_graph(), [CHAIN_FLOW], PortConfig(q0=8 * 12_000, buffer_bits=150 * 12_000),
                      n_shards=n_shards, partition=partition, **kw)


class TestResolveShards:
    def test_auto_caps_at_switch_count(self):
        g = chain_graph()  # 3 switches
        assert resolve_shards("auto", g, workers=8) == 3
        assert resolve_shards("auto", g, workers=2) == 2
        assert resolve_shards("auto", g, workers=1) == 1

    def test_auto_default_workers_is_machine_bound(self):
        g = fat_tree(4)
        n = resolve_shards("auto", g, workers=None)
        assert 1 <= n <= 20  # 20 switches in a k=4 fat-tree

    def test_integers_pass_through(self):
        assert resolve_shards(5, chain_graph(), workers=None) == 5

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, "four"])
    def test_rejects_non_counts(self, bad):
        with pytest.raises(ValueError):
            resolve_shards(bad, chain_graph(), workers=None)


class TestBuildPlan:
    def test_ownership_rules(self):
        plan = chain_plan()
        # host NIC edge is pacing, not a port
        assert ("h0", "s1") not in plan.port_owner
        assert plan.port_edges == (("s1", "s2"), ("s2", "s3"), ("s3", "h1"))
        # directed port (u, v) lives with the transmitting node u
        assert plan.port_owner[("s1", "s2")] == 0
        assert plan.port_owner[("s2", "s3")] == 1
        assert plan.port_owner[("s3", "h1")] == 1
        # the source lives with the first route node
        assert plan.source_owner[0] == 0

    def test_lookahead_is_min_cross_channel_latency(self):
        # the cheapest cut channel on the chain is one forwarding hop
        assert chain_plan().lookahead == DELAY

    def test_single_shard_lookahead_is_infinite(self):
        whole = Partition(n_shards=1, assignment={
            n: 0 for n in chain_graph().nodes
        })
        plan = chain_plan(n_shards=1, partition=whole)
        assert plan.lookahead == math.inf
        assert plan.window_edges(0.5) == [0.5]

    def test_zero_delay_rejected_when_cut(self):
        with pytest.raises(ValueError, match="propagation delay"):
            chain_plan(delay=0.0)

    def test_partition_shard_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            chain_plan(n_shards=3)

    def test_needs_flows(self):
        with pytest.raises(ValueError):
            build_plan(chain_graph(), [],
                       PortConfig(q0=8 * 12_000, buffer_bits=150 * 12_000),
                       n_shards=1, partition=None, **CONFIG_KW)

    def test_plan_is_picklable(self):
        import pickle

        plan = chain_plan()
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.port_owner == plan.port_owner
        assert clone.lookahead == plan.lookahead


class TestWindowEdges:
    def test_multiplication_stable_edges(self):
        plan = chain_plan()
        duration = 17.3 * DELAY
        edges = plan.window_edges(duration)
        assert edges[-1] == duration
        assert all(b > a for a, b in zip(edges, edges[1:]))
        for k, edge in enumerate(edges[:-1]):
            assert edge == (k + 1) * plan.lookahead

    def test_exact_multiple_has_no_sliver_window(self):
        plan = chain_plan()
        edges = plan.window_edges(10 * DELAY)
        assert len(edges) == 10
        assert edges[-1] == 10 * DELAY

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            chain_plan().window_edges(0.0)


class TestEventRouting:
    EVENTS = [
        (1e-4, 0, "capacity", (("s1", "s2"), 5e9)),
        (2e-4, 1, "capacity", (("s2", "s3"), 5e9)),
        (3e-4, 2, "outage", (1e-5, None)),
        (4e-4, 3, "departure", (0,)),
    ]

    def test_events_go_to_owners(self):
        plan = chain_plan()
        mine0 = plan.events_for_shard(0, self.EVENTS)
        mine1 = plan.events_for_shard(1, self.EVENTS)
        kinds0 = [(kind, seq) for _, seq, kind, _ in mine0]
        kinds1 = [(kind, seq) for _, seq, kind, _ in mine1]
        # port events to the port owner, global outage everywhere,
        # departure to the source owner
        assert kinds0 == [("capacity", 0), ("outage", 2), ("departure", 3)]
        assert kinds1 == [("capacity", 1), ("outage", 2)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown timed event"):
            chain_plan().events_for_shard(0, [(0.0, 0, "comet", ())])


class _EmitRecorder:
    def __init__(self):
        self.sent = []
        self.sim = type("S", (), {"now": 2.5})()

    def _emit(self, dst, arrival, kind, target, payload):
        self.sent.append((dst, arrival, kind, target, payload))


class TestRemoteLink:
    def test_transmit_stamps_arrival_and_routes_to_outbox(self):
        runtime = _EmitRecorder()
        link = RemoteLink(runtime=runtime, dst_shard=3, delay=0.5,
                          kind="frame", target=("s1", "s2"))
        link.transmit("payload")
        assert runtime.sent == [(3, 3.0, "frame", ("s1", "s2"), "payload")]


class TestShardRuntimeLifecycle:
    def test_one_shard_run_delivers(self):
        whole = Partition(n_shards=1, assignment={
            n: 0 for n in chain_graph().nodes
        })
        plan = chain_plan(n_shards=1, partition=whole)
        runtime = ShardRuntime(plan, 0, [], False)
        duration = 2e-4
        runtime.start(duration)
        outbox = runtime.run_window(duration, [])
        assert outbox == {}  # nothing crosses a one-shard plan
        partial = runtime.finish()
        assert partial["shard"] == 0
        assert partial["delivered"][0] > 0
        assert partial["msgs_sent"] == 0

    def test_cross_shard_messages_carry_positional_seq(self):
        plan = chain_plan()
        rt0 = ShardRuntime(plan, 0, [], False)
        duration = 5 * DELAY
        rt0.start(duration)
        outbox = rt0.run_window(plan.window_edges(duration)[0], [])
        # the source's first frames head for shard 1 via (s1, s2)
        assert set(outbox) <= {1}
        for arrival, _kind, _target, _payload in outbox.get(1, []):
            assert arrival > plan.window_edges(duration)[0] - 1e-18
