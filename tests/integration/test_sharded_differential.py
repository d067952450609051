"""Differential suite: the sharded fabric engine vs the serial network.

The determinism contract of :mod:`repro.shard`, as promised by the
module docstrings:

* **one shard == serial, bitwise** — a ``shards=1`` plan replays the
  serial :class:`MultiHopNetwork` construction and event order exactly,
  so every result field matches bit for bit;
* **worker layout is invisible** — the same plan run with 1, 2 or 4
  workers produces bitwise-identical results (messages are ordered by
  the canonical ``(arrival, src_shard, seq)`` key, never by wall-clock
  arrival);
* **multi-shard tracks serial within documented tolerances** — cutting
  the fabric reorders same-timestamp events across shard boundaries,
  so multi-shard results are compared on aggregates: total delivered
  bits within 5%, the shared sampling grid bitwise, and conservation
  invariants exact;
* **scenario events ride along** — timed capacity changes, outages and
  departures are routed to owning shards and preserve all of the
  above.
"""

import numpy as np
import pytest

from repro.simulation.multihop import MultiHopNetwork, PortConfig
from repro.topology.graphs import fat_tree
from repro.workloads import incast, permutation

FRAME_BITS = 12_000
DELAY = 1e-6
DURATION = 2e-4
CONFIG = PortConfig(q0=8 * FRAME_BITS, buffer_bits=60 * FRAME_BITS)


def _hosts(graph):
    return sorted(
        n for n, d in graph.nodes(data=True) if d.get("kind") == "host"
    )


def _network(flows=None, *, congested=False, **kwargs):
    g = fat_tree(4, capacity=10e9)
    hosts = _hosts(g)
    if flows is None:
        if congested:
            flows = incast(hosts[1:], hosts[0], response_bits=5e5,
                           demand=5e9)
        else:
            flows = permutation(hosts, demand=2e9, rounds=1)
    return MultiHopNetwork(g, flows, CONFIG, frame_bits=FRAME_BITS,
                           propagation_delay=DELAY, **kwargs)


def _run(**kwargs):
    return _network(**kwargs).run(DURATION)


def assert_bitwise_equal(a, b):
    assert a.per_flow_delivered_bits == b.per_flow_delivered_bits
    assert a.per_flow_rate == b.per_flow_rate
    assert a.finish_times == b.finish_times
    assert a.start_times == b.start_times
    assert a.dropped_frames == b.dropped_frames
    assert a.bcn_negative == b.bcn_negative
    assert a.bcn_positive == b.bcn_positive
    assert a.pauses == b.pauses
    np.testing.assert_array_equal(a.port_queue_times, b.port_queue_times)
    assert set(a.port_queues) == set(b.port_queues)
    for edge in a.port_queues:
        np.testing.assert_array_equal(a.port_queues[edge],
                                      b.port_queues[edge])


class TestOneShardIsSerialBitwise:
    def test_plain_run(self):
        serial = _run()
        sharded = _run(shards=1)
        assert_bitwise_equal(serial, sharded)

    def test_congested_run(self):
        serial = _run(congested=True)
        sharded = _run(congested=True, shards=1)
        assert serial.dropped_frames + serial.pauses + serial.bcn_negative > 0
        assert_bitwise_equal(serial, sharded)


class TestWorkerLayoutIsInvisible:
    @pytest.mark.parametrize("congested", [False, True])
    def test_1_2_4_workers_bitwise(self, congested):
        runs = [
            _run(congested=congested, shards=4, workers=w)
            for w in (1, 2, 4)
        ]
        assert_bitwise_equal(runs[0], runs[1])
        assert_bitwise_equal(runs[0], runs[2])

    def test_pool_path_matches_inline(self):
        inline = _run(shards=4, workers=1)
        pooled = _run(shards=4, workers=2)
        assert_bitwise_equal(inline, pooled)


class TestMultiShardTracksSerial:
    @pytest.mark.parametrize("congested", [False, True])
    def test_aggregates_within_tolerance(self, congested):
        serial = _run(congested=congested)
        sharded = _run(congested=congested, shards=4, workers=1)
        total_serial = sum(serial.per_flow_delivered_bits.values())
        total_sharded = sum(sharded.per_flow_delivered_bits.values())
        assert total_serial > 0
        # cutting the fabric only reorders same-timestamp events
        assert total_sharded == pytest.approx(total_serial, rel=0.05)
        # the sampling grid is plan-fixed, not shard-fixed
        np.testing.assert_array_equal(serial.port_queue_times,
                                      sharded.port_queue_times)
        assert set(serial.port_queues) == set(sharded.port_queues)

    def test_delivery_conservation(self):
        sharded = _run(congested=True, shards=4, workers=1)
        serial = _run(congested=True)
        for res in (serial, sharded):
            for fid, delivered in res.per_flow_delivered_bits.items():
                # nothing is delivered twice: finite flows never exceed
                # their size
                assert delivered <= 5e5 + FRAME_BITS


class TestScenarioEventsRideAlong:
    def _with_events(self, **kwargs):
        net = _network(**kwargs)
        edge = (net._plan.port_edges if net.sharded
                else tuple(net._port_edges))[0]
        net.schedule_capacity(5e-5, edge, 1e9)
        net.schedule_outage(1e-4, 3e-5, port=None)
        net.schedule_departure(1.5e-4, 0)
        return net.run(DURATION)

    def test_one_shard_bitwise_with_events(self):
        serial = self._with_events()
        sharded = self._with_events(shards=1)
        assert_bitwise_equal(serial, sharded)

    def test_worker_layout_invisible_with_events(self):
        inline = self._with_events(shards=4, workers=1)
        pooled = self._with_events(shards=4, workers=2)
        assert_bitwise_equal(inline, pooled)

    def test_multi_shard_tracks_serial_with_events(self):
        serial = self._with_events()
        sharded = self._with_events(shards=4, workers=1)
        total_serial = sum(serial.per_flow_delivered_bits.values())
        total_sharded = sum(sharded.per_flow_delivered_bits.values())
        assert total_sharded == pytest.approx(total_serial, rel=0.05)
        # the departed flow stops in both worlds
        assert sharded.per_flow_delivered_bits[0] == \
            pytest.approx(serial.per_flow_delivered_bits[0], rel=0.05)


class TestObsMerge:
    def test_counters_and_spans_merge_across_shards(self):
        from repro.obs import Observability

        obs = Observability()
        net = _network(congested=True, shards=4, workers=2, obs=obs)
        net.run(DURATION)
        counters = obs.metrics.counters
        n_windows = len(net._plan.window_edges(DURATION))
        assert counters["shard.windows"].value == n_windows
        assert counters["shard.msgs.sent"].value > 0
        # every sent message is received unless still in flight at the
        # final barrier
        assert counters["shard.msgs.recv"].value <= \
            counters["shard.msgs.sent"].value
        assert obs.event_counts()  # merged event counters survive
