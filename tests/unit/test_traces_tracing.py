"""Unit tests for synthetic workload traces."""

import pytest

from repro.workloads.traces import TraceConfig, generate_trace


HOSTS = [f"h{i}" for i in range(8)]


def config(**overrides):
    base = dict(arrival_rate=200.0, mean_size_bits=1e6, horizon=1.0, seed=7)
    base.update(overrides)
    return TraceConfig(**base)


class TestTraceGeneration:
    def test_reproducible(self):
        t1 = generate_trace(config(), HOSTS)
        t2 = generate_trace(config(), HOSTS)
        assert [f.start_time for f in t1.flows] == [
            f.start_time for f in t2.flows]
        assert [f.size_bits for f in t1.flows] == [
            f.size_bits for f in t2.flows]

    def test_different_seeds_differ(self):
        t1 = generate_trace(config(seed=1), HOSTS)
        t2 = generate_trace(config(seed=2), HOSTS)
        assert [f.size_bits for f in t1.flows] != [
            f.size_bits for f in t2.flows]

    def test_arrival_count_roughly_poisson(self):
        trace = generate_trace(config(arrival_rate=500.0, horizon=2.0), HOSTS)
        # mean 1000; allow +-20%
        assert 800 <= trace.n_flows <= 1200

    def test_sizes_within_bounds(self):
        trace = generate_trace(config(), HOSTS)
        for flow in trace.flows:
            assert config().min_size_bits <= flow.size_bits <= config().max_size_bits

    def test_mean_size_calibrated(self):
        trace = generate_trace(config(arrival_rate=2000.0, horizon=2.0), HOSTS)
        mean = trace.total_bits() / trace.n_flows
        assert mean == pytest.approx(1e6, rel=0.5)  # heavy tail: loose

    def test_heavy_tail_elephant_share(self):
        trace = generate_trace(config(arrival_rate=2000.0, horizon=2.0), HOSTS)
        # a minority of flows above 8 Mbit carries a large byte share
        big_flows = sum(1 for f in trace.flows if f.size_bits >= 8e6)
        assert big_flows / trace.n_flows < 0.2
        assert trace.elephant_share(threshold_bits=8e6) > 0.3

    def test_sink_mode(self):
        trace = generate_trace(config(), HOSTS, sink="collector")
        assert all(f.dst == "collector" for f in trace.flows)
        assert all(f.src in HOSTS for f in trace.flows)

    def test_start_times_ordered_within_horizon(self):
        trace = generate_trace(config(), HOSTS)
        starts = [f.start_time for f in trace.flows]
        assert starts == sorted(starts)
        assert all(0 <= s < 1.0 for s in starts)

    def test_offered_load(self):
        trace = generate_trace(config(arrival_rate=1000.0, horizon=1.0), HOSTS)
        load = trace.offered_load(1e9)
        assert load == pytest.approx(trace.total_bits() / 1e9, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            config(arrival_rate=0.0)
        with pytest.raises(ValueError):
            config(pareto_shape=0.9)
        with pytest.raises(ValueError):
            generate_trace(config(), ["only-one"])
