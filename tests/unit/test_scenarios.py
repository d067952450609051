"""Unit tests for the declarative scenario layer (repro.scenarios)."""

import pytest

from repro.scenarios import (
    CapacityChange,
    FlowArrival,
    FlowDeparture,
    IncastBurst,
    LinkOutage,
    PRESETS,
    Scenario,
    ScenarioPoint,
    base_params,
    evaluate_scenario_point,
    get_preset,
    piecewise_capacity,
    preset_names,
    run_scenario,
    sinusoidal_capacity,
)


def _scenario(events=(), **kw):
    defaults = dict(name="t", params=base_params(), duration=0.02,
                    events=tuple(events))
    defaults.update(kw)
    return Scenario(**defaults)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FlowArrival(t=-1e-3, demand=1e8)

    def test_nonfinite_time_rejected(self):
        with pytest.raises(ValueError):
            LinkOutage(t=float("nan"), duration=1e-3)

    def test_nonpositive_fields_rejected(self):
        with pytest.raises(ValueError):
            FlowArrival(t=0.0, demand=0.0)
        with pytest.raises(ValueError):
            FlowArrival(t=0.0, demand=1e8, size_bits=-1.0)
        with pytest.raises(ValueError):
            IncastBurst(t=0.0, n_servers=0, response_bits=1e5, demand=1e8)
        with pytest.raises(ValueError):
            LinkOutage(t=0.0, duration=0.0)
        with pytest.raises(ValueError):
            CapacityChange(t=0.0, capacity=0.0)
        with pytest.raises(ValueError):
            FlowDeparture(t=0.0, address=-1)


class TestScenarioContainer:
    def test_events_sorted_canonically(self):
        late = FlowArrival(t=0.01, demand=1e8)
        early = CapacityChange(t=0.001, capacity=5e8)
        s = _scenario([late, early])
        assert s.events == (early, late)

    def test_same_timestamp_ordered_by_kind_rank(self):
        t = 0.005
        arrival = FlowArrival(t=t, demand=1e8)
        outage = LinkOutage(t=t, duration=1e-3)
        capacity = CapacityChange(t=t, capacity=5e8)
        departure = FlowDeparture(t=t, address=0)
        s = _scenario([departure, arrival, outage, capacity])
        assert s.events == (capacity, outage, arrival, departure)

    def test_departure_of_unknown_address_rejected(self):
        with pytest.raises(ValueError, match="departure"):
            _scenario([FlowDeparture(t=0.0, address=99)])

    def test_bad_container_fields_rejected(self):
        with pytest.raises(ValueError):
            _scenario(name="")
        with pytest.raises(ValueError):
            _scenario(duration=0.0)
        with pytest.raises(ValueError):
            _scenario(frame_bits=0)
        with pytest.raises(TypeError):
            _scenario(["not an event"])

    def test_with_re_sorts(self):
        s = _scenario()
        s2 = s.with_(events=(FlowArrival(t=0.01, demand=1e8),
                             CapacityChange(t=0.001, capacity=5e8)))
        assert s2.events[0].t == 0.001
        assert s.events == ()  # original untouched


class TestCapacityViews:
    def test_profile_and_transitions(self):
        s = _scenario(piecewise_capacity([(0.005, 6e8), (0.010, 1e9)]))
        assert s.capacity_profile() == [(0.0, 1e9), (0.005, 6e8),
                                        (0.010, 1e9)]
        assert s.n_capacity_transitions() == 2

    def test_events_beyond_horizon_ignored(self):
        s = _scenario([CapacityChange(t=1.0, capacity=5e8)])
        assert s.n_capacity_transitions() == 0
        assert s.capacity_integral() == pytest.approx(1e9 * 0.02)

    def test_integral_with_steps_and_outage(self):
        s = _scenario(
            piecewise_capacity([(0.01, 5e8)])
            + (LinkOutage(t=0.005, duration=0.01),)
        )
        # 1e9 * 5ms (pre-outage) + 5e8 * 5ms (post-outage tail at 5e8);
        # [5, 10) ms of 1e9 and [10, 15) ms of 5e8 are frozen.
        assert s.capacity_integral() == pytest.approx(
            1e9 * 0.005 + 5e8 * 0.005)

    def test_sinusoidal_capacity_shape(self):
        steps = sinusoidal_capacity(base=1e9, amplitude=2e8, period=0.01,
                                    t_start=0.0, t_end=0.01, steps=4)
        assert len(steps) == 5
        assert steps[-1].capacity == 1e9
        assert all(0 < c.capacity for c in steps)

    def test_sinusoidal_capacity_validation(self):
        with pytest.raises(ValueError):
            sinusoidal_capacity(base=1e9, amplitude=1e9, period=0.01,
                                t_start=0.0, t_end=0.01)
        with pytest.raises(ValueError):
            sinusoidal_capacity(base=1e9, amplitude=1e8, period=0.01,
                                t_start=0.01, t_end=0.01)
        with pytest.raises(ValueError):
            sinusoidal_capacity(base=1e9, amplitude=1e8, period=0.01,
                                t_start=0.0, t_end=0.01, steps=1)

    def test_dynamic_flow_count(self):
        s = _scenario([
            FlowArrival(t=0.001, demand=1e8),
            IncastBurst(t=0.002, n_servers=8, response_bits=1e5,
                        demand=1e8),
            FlowDeparture(t=0.003, address=0),
        ])
        assert s.dynamic_flow_count() == 9


class TestPresets:
    def test_registry_names(self):
        assert preset_names() == sorted(PRESETS)
        assert "incast-32" in PRESETS

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown scenario preset"):
            get_preset("nope")

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_build_and_validate(self, name):
        s = get_preset(name, seed=1)
        assert s.name == name
        assert s.seed == 1
        assert s.duration > 0
        # canonical order holds by construction
        times = [e.t for e in s.events]
        assert times == sorted(times)

    def test_varying_capacity_meets_acceptance_floor(self):
        assert get_preset("varying-capacity").n_capacity_transitions() >= 2

    def test_incast_preset_has_pause_threshold(self):
        s = get_preset("incast-32")
        assert s.params.q_sc is not None
        burst = s.events[0]
        assert isinstance(burst, IncastBurst)
        # offered rate must oversubscribe the port to force the episode
        assert burst.n_servers * burst.demand > s.params.capacity


class TestRuntime:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown packet engine"):
            run_scenario(_scenario(), engine="quantum")

    def test_finite_flows_report_fct_and_slowdown(self):
        s = _scenario(
            [FlowArrival(t=0.001, demand=2e8, size_bits=10 * 12_000.0)],
            duration=0.01,
        )
        result = run_scenario(s, engine="reference")
        (flow,) = result.flows
        assert flow.finish_time is not None
        assert flow.fct > 0
        assert flow.slowdown >= 1.0 - 1e-9  # cannot beat size/demand
        assert result.fcts == {flow.address: flow.fct}
        assert result.unfinished == []

    def test_unfinished_flow_has_no_fct(self):
        s = _scenario(
            [FlowArrival(t=0.001, demand=1e6, size_bits=1e9)],
            duration=0.005,
        )
        result = run_scenario(s, engine="reference")
        (flow,) = result.flows
        assert flow.finish_time is None
        assert flow.fct is None and flow.slowdown is None
        assert result.unfinished == [flow.address]


class TestSweep:
    def test_point_validates_preset_and_engine(self):
        with pytest.raises(ValueError):
            ScenarioPoint(preset="nope")
        with pytest.raises(ValueError):
            ScenarioPoint(preset="dc-baseline", engine="quantum")
        point = ScenarioPoint(preset="dc-baseline")
        with pytest.raises(ValueError):
            point.with_(engine="quantum")
        # a synonym folds onto the engine it names (one cache identity)
        assert point.with_(engine="compiled").engine == "batched"

    def test_evaluate_record_shape(self):
        record = evaluate_scenario_point(
            ScenarioPoint(preset="varying-capacity", engine="batched"))
        assert record["preset"] == "varying-capacity"
        assert record["engine"] == "batched"
        assert 0.9 < record["utilization"] <= 1.0 + 1e-9
        assert record["n_dynamic_flows"] == 0
        assert record["fct_mean"] is None and record["fct_p99"] is None
        assert record["fcts"] == []


class TestScenarioCli:
    def test_list_shows_registry(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in preset_names():
            assert name in out

    def test_single_run_reports_metrics(self, capsys):
        from repro.cli import main

        assert main(["scenario", "varying-capacity", "--engine", "batched",
                     "--plot"]) == 0
        out = capsys.readouterr().out
        assert "capacity transitions" in out
        assert "utilization" in out
        assert "queue q(t)" in out

    def test_sweep_reports_per_seed_rows(self, capsys):
        from repro.cli import main

        assert main(["scenario", "dc-baseline", "--seeds", "2",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "seed" in out
        assert "2 seeds on the reference engine" in out
