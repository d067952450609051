"""Unit tests for the dumbbell and multi-hop orchestrators."""

import numpy as np
import pytest

from repro.core.parameters import BCNParams
from repro.simulation.multihop import MultiHopNetwork, PortConfig
from repro.simulation.network import (PACKET_ENGINES, BCNNetworkSimulator,
                                      resolve_engine)
from repro.topology.graphs import dumbbell, fat_tree
from repro.workloads.flows import FlowSpec
from repro.workloads.generators import homogeneous, incast


def small_params(**overrides):
    config = dict(capacity=1e8, n_flows=4, q0=1e5, buffer_size=1e6,
                  pm=0.1, ru=1e5)
    config.update(overrides)
    return BCNParams(**config)


class TestDumbbell:
    def test_run_produces_consistent_result(self):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000)
        res = net.run(0.1)
        assert res.duration == 0.1
        assert res.t.shape == res.queue.shape
        assert np.all(res.queue >= 0)
        assert np.all(res.queue <= 1e6)
        assert res.per_source_rate.shape == (4,)
        assert 0 <= res.utilization() <= 1.001
        assert 0 < res.jain_fairness() <= 1.0

    def test_overload_start_engages_bcn(self):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000)
        res = net.run(0.1)
        assert res.bcn_negative > 0
        assert res.queue_peak() > 0

    def test_conservation_at_bottleneck(self):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000)
        res = net.run(0.05)
        queue = net.switch.queue
        assert queue.conservation_holds()
        sent = sum(s.frames_sent for s in net.sources)
        in_flight_or_resident = sent - queue.dropped_frames - res.forwarded_frames
        assert in_flight_or_resident >= 0

    def test_delivered_bits_bounded_by_capacity(self):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000)
        res = net.run(0.1)
        assert res.delivered_bits <= 1e8 * 0.1 * 1.01

    def test_rejects_nonpositive_duration(self):
        net = BCNNetworkSimulator(small_params())
        with pytest.raises(ValueError):
            net.run(0.0)

    def test_queue_mean_and_std_settle_window(self):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000)
        res = net.run(0.1)
        assert res.queue_mean(settle=0.05) >= 0
        assert res.queue_std(settle=0.05) >= 0

    def test_regulator_mode_plumbed(self):
        net = BCNNetworkSimulator(small_params(), regulator_mode="fluid-exact")
        assert all(s.regulator.mode == "fluid-exact" for s in net.sources)


class TestEngineNames:
    def test_registered_names_resolve_to_themselves(self):
        assert [resolve_engine(e) for e in PACKET_ENGINES] == list(
            PACKET_ENGINES)

    def test_compiled_is_a_synonym_of_batched(self):
        assert resolve_engine("compiled") == "batched"
        net = BCNNetworkSimulator(small_params(), frame_bits=8000,
                                  engine="compiled")
        assert net.engine == "batched"
        syn = net.run(0.02)
        bat = BCNNetworkSimulator(small_params(), frame_bits=8000,
                                  engine="batched").run(0.02)
        np.testing.assert_array_equal(syn.queue, bat.queue)
        assert syn.delivered_bits == bat.delivered_bits

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown packet engine"):
            resolve_engine("calendar")
        with pytest.raises(ValueError, match="unknown packet engine"):
            BCNNetworkSimulator(small_params(), engine="referense")


class TestMultiHop:
    def config(self):
        return PortConfig(q0=5e4, buffer_bits=5e5, pm=0.1)

    def test_incast_congests_last_hop(self):
        g = fat_tree(4, capacity=1e8)
        from repro.topology.graphs import hosts

        hs = hosts(g)
        flows = incast(hs[4:8], hs[0], response_bits=5e5, demand=1e8)
        net = MultiHopNetwork(g, flows, self.config(), frame_bits=8000)
        res = net.run(0.2)
        hottest = res.hottest_port()
        assert hottest[1] == hs[0]  # the client's last hop
        assert res.bcn_negative > 0

    def test_all_flows_deliver_on_uncongested_paths(self):
        g = dumbbell(2, capacity=1e8)
        flows = [
            FlowSpec(flow_id=0, src="h0", dst="sink", demand=1e7),
            FlowSpec(flow_id=1, src="h1", dst="sink", demand=1e7),
        ]
        net = MultiHopNetwork(g, flows, self.config(), frame_bits=8000)
        res = net.run(0.2)
        for fid in (0, 1):
            assert res.per_flow_delivered_bits[fid] > 0
        assert res.dropped_frames == 0

    def test_routes_filled_by_ecmp(self):
        g = fat_tree(4, capacity=1e8)
        from repro.topology.graphs import hosts

        hs = hosts(g)
        flows = homogeneous(hs[4:6], hs[0], demand=1e7)
        net = MultiHopNetwork(g, flows, self.config())
        for spec in flows:
            route = net.routes[spec.flow_id]
            assert route[0] == spec.src
            assert route[-1] == spec.dst

    def test_pinned_route_respected(self):
        g = dumbbell(2, capacity=1e8)
        route = ("h0", "edge0", "core0", "sink")
        flows = [FlowSpec(flow_id=0, src="h0", dst="sink", demand=1e7,
                          route=route)]
        net = MultiHopNetwork(g, flows, self.config())
        assert net.routes[0] == list(route)

    def test_start_times_respected(self):
        g = dumbbell(2, capacity=1e8)
        flows = [
            FlowSpec(flow_id=0, src="h0", dst="sink", demand=1e7),
            FlowSpec(flow_id=1, src="h1", dst="sink", demand=1e7,
                     start_time=0.15),
        ]
        net = MultiHopNetwork(g, flows, self.config(), frame_bits=8000)
        res = net.run(0.1)  # before flow 1 starts
        assert res.per_flow_delivered_bits[1] == 0.0
        assert res.per_flow_delivered_bits[0] > 0.0

    def test_requires_flows(self):
        with pytest.raises(ValueError):
            MultiHopNetwork(dumbbell(2), [], self.config())

    def test_jain_fairness_range(self):
        g = dumbbell(3, capacity=1e8)
        flows = homogeneous(["h0", "h1", "h2"], "sink", demand=5e7)
        net = MultiHopNetwork(g, flows, self.config(), frame_bits=8000)
        res = net.run(0.2)
        assert 0 < res.jain_fairness() <= 1.0


class TestHopLevelPause:
    def test_service_pause_defers_forwarding(self):
        from repro.simulation.engine import Simulator
        from repro.simulation.frames import EthernetFrame, PauseFrame
        from repro.simulation.switch import CoreSwitch

        sim = Simulator()
        out = []
        switch = CoreSwitch(sim, cpid="p", capacity=12000.0, q0=60000.0,
                            buffer_bits=600000.0,
                            forward=lambda f: out.append(sim.now))
        switch.receive_pause(PauseFrame(sa="down", duration=5.0))
        switch.receive(EthernetFrame(src=0, dst="sink", size_bits=12000,
                                     flow_id=0))
        sim.run(until=4.0)
        assert out == []  # still paused
        sim.run(until=7.0)
        assert out == [pytest.approx(6.0)]  # resumes at 5.0, serves 1s

    def test_victim_flow_starved_by_pause_rollback(self):
        """The Section I failure mode: PAUSE on a congested port rolls
        back and stalls an innocent flow sharing the upstream link."""
        from repro.experiments.m1_victim_flow import _run_config

        pause_only = _run_config(enable_bcn=False, enable_pause=True)
        bcn = _run_config(enable_bcn=True, enable_pause=False)
        assert pause_only.pauses > 0
        assert bcn.flow_throughput(3) > 2.0 * pause_only.flow_throughput(3)
