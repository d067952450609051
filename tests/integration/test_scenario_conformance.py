"""Cross-engine conformance of the scenario presets.

Every named preset runs on the reference and the batched packet engine
and must agree within documented tolerances.  The declarative schedule
makes both engines see the *same* arrivals, bursts, outages and C(t)
steps, so disagreement here means an engine mis-handles a dynamic
event, not that the workloads diverged.

Tolerances (measured headroom at seed 0 is 2-4x tighter):

* utilisation within 1 percentage point (both measured against the same
  ``capacity_integral()``);
* queue mean within 15%, queue peak within 25% — the batched engine's
  one-quantum control lag shifts the transient envelope slightly;
* PAUSE frame counts within 15% when the reference pauses at all
  (the pause-commit horizon makes each episode admit the same in-flight
  frames, but episode boundaries can shift by one window);
* drop counts within ``max(10, 25%)`` frames;
* the *set* of finished dynamic flows is identical, and the FCT
  **distributions** agree quantile-by-quantile within 25% relative /
  0.5 ms absolute (individual flows can swap service order inside a
  contested episode, so per-flow FCTs are not compared — measured
  per-flow divergence reaches ~50% while the sorted distributions stay
  within ~15%);
* bits are conserved on each engine independently, up to the in-flight
  slack of ``(n_sources + 2) * frame_bits``.

The incast preset additionally must show a genuine PAUSE episode in the
obs stream of *both* engines (queue through ``q_sc``, ``pause_on``
events, FCT-slowdown histogram populated), and the varying-capacity
preset must exercise at least two ``C(t)`` transitions.

The batched engine's two kernel tiers (numpy ops and the compiled
kernels) must agree bit for bit on every preset.
"""

import numpy as np
import pytest

from repro.kernels import get_backend
from repro.obs import Observability
from repro.scenarios import get_preset, preset_names, run_scenario
from repro.simulation.network import PACKET_ENGINES

#: One control quantum (the batched engine's message-lag scale), used as
#: the absolute floor for per-flow FCT agreement.
CONTROL_QUANTUM = 100e-6

_RUNS: dict[tuple[str, str], object] = {}


def _run(preset: str, engine: str):
    obs = Observability()
    result = run_scenario(get_preset(preset), engine=engine, obs=obs)
    result._obs = obs
    return result


def _result(preset: str, engine: str):
    key = (preset, engine)
    if key not in _RUNS:
        _RUNS[key] = _run(preset, engine)
    return _RUNS[key]


def _numpy_tier_result(preset: str, numpy_tier):
    """The batched run of ``preset`` on the numpy kernel tier."""
    key = (preset, "batched@numpy")
    if key not in _RUNS:
        with numpy_tier():
            _RUNS[key] = _run(preset, "batched")
    return _RUNS[key]


@pytest.fixture(params=preset_names())
def preset(request):
    return request.param


class TestPresetConformance:
    def test_utilization_agrees(self, preset):
        ref = _result(preset, "reference")
        bat = _result(preset, "batched")
        assert bat.utilization() == pytest.approx(ref.utilization(),
                                                  abs=0.01)

    def test_queue_statistics_agree(self, preset):
        ref = _result(preset, "reference")
        bat = _result(preset, "batched")
        assert bat.sim.queue_mean() == pytest.approx(
            ref.sim.queue_mean(), rel=0.15)
        assert bat.sim.queue_peak() == pytest.approx(
            ref.sim.queue_peak(), rel=0.25)

    def test_pause_volume_agrees(self, preset):
        ref = _result(preset, "reference")
        bat = _result(preset, "batched")
        if ref.sim.pauses == 0:
            assert bat.sim.pauses == 0
        else:
            assert bat.sim.pauses == pytest.approx(ref.sim.pauses, rel=0.15)

    def test_drop_counts_track(self, preset):
        ref = _result(preset, "reference")
        bat = _result(preset, "batched")
        assert abs(bat.sim.dropped_frames - ref.sim.dropped_frames) <= max(
            10, 0.25 * max(ref.sim.dropped_frames, 1))

    def test_same_flows_finish_with_agreeing_fct_distribution(self, preset):
        ref = _result(preset, "reference")
        bat = _result(preset, "batched")
        assert sorted(ref.fcts) == sorted(bat.fcts)
        if not ref.fcts:
            return
        fct_ref = np.sort(list(ref.fcts.values()))
        fct_bat = np.sort(list(bat.fcts.values()))
        gap = np.abs(fct_bat - fct_ref)
        bound = np.maximum(0.25 * fct_ref, 5 * CONTROL_QUANTUM)
        assert (gap <= bound).all(), (
            f"FCT quantiles diverge: worst {gap.max():.6f} s")

    def test_bits_conserved_on_each_engine(self, preset):
        scenario = get_preset(preset)
        for engine in PACKET_ENGINES:
            res = _result(preset, engine)
            slack = (res.sim.per_source_rate.size + 2) * scenario.frame_bits
            assert abs(res.conservation_error()) <= slack, (
                f"{engine}: {res.conservation_error()} bits unaccounted")

    def test_schedule_events_identical_across_engines(self, preset):
        """flow_start/capacity_change/link_* streams match exactly."""
        ref_obs = _result(preset, "reference")._obs
        bat_obs = _result(preset, "batched")._obs

        def schedule_stream(obs, engine):
            return [
                (e.kind, e.t, e.flow, e.value)
                for e in obs.trace.records
                if e.kind in ("flow_start", "capacity_change",
                              "link_down", "link_up")
                and e.engine == f"packet.{engine}"
            ]

        assert schedule_stream(ref_obs, "reference") == \
            schedule_stream(bat_obs, "batched")


@pytest.mark.skipif(not get_backend().compiled,
                    reason="no compiled backend (cffi + C compiler) available")
class TestCompiledEngineExact:
    """The batched engine's compiled tier runs its numpy tier's windows:
    same messages, same RNG draws — so scenario results match **bit for
    bit** across the two tiers."""

    def test_series_and_counters_match_batched(self, preset, numpy_tier):
        bat = _numpy_tier_result(preset, numpy_tier)
        com = _result(preset, "batched")
        np.testing.assert_array_equal(com.sim.t, bat.sim.t)
        np.testing.assert_array_equal(com.sim.queue, bat.sim.queue)
        np.testing.assert_array_equal(com.sim.rate_total,
                                      bat.sim.rate_total)
        np.testing.assert_array_equal(com.sim.per_source_rate,
                                      bat.sim.per_source_rate)
        assert com.sim.dropped_frames == bat.sim.dropped_frames
        assert com.sim.forwarded_frames == bat.sim.forwarded_frames
        assert com.sim.pauses == bat.sim.pauses
        assert com.sim.delivered_bits == bat.sim.delivered_bits
        assert com.fcts == bat.fcts
        assert com.injected_bits == bat.injected_bits
        assert com.queued_bits_end == bat.queued_bits_end

    def test_obs_event_streams_match_batched(self, preset, numpy_tier):
        """Event-for-event agreement (multiset: the compiled drop-tail
        fallback replays drop/bcn/pause events sorted by time, which
        can reorder simultaneous events from different sources)."""
        def stream(res):
            return sorted(
                (e.kind, e.t, e.node, e.flow, e.value)
                for e in res._obs.trace.records
            )

        assert stream(_result(preset, "batched")) == \
            stream(_numpy_tier_result(preset, numpy_tier))


class TestIncastEpisode:
    """The acceptance-criterion preset: a visible PAUSE episode."""

    @pytest.mark.parametrize("engine", PACKET_ENGINES)
    def test_queue_punches_through_q_sc(self, engine):
        res = _result("incast-32", engine)
        q_sc = res.scenario.params.q_sc
        assert q_sc is not None
        assert res.sim.queue_peak() > q_sc
        assert res.sim.pauses > 0

    @pytest.mark.parametrize("engine", PACKET_ENGINES)
    def test_pause_episode_visible_in_obs(self, engine):
        obs = _result("incast-32", engine)._obs
        counts = obs.event_counts(engine=f"packet.{engine}")
        assert counts.get("pause_on", 0) > 0
        assert counts.get("pause_off", 0) > 0
        assert counts.get("flow_finish", 0) == 32

    @pytest.mark.parametrize("engine", PACKET_ENGINES)
    def test_fct_slowdown_histogram_populated(self, engine):
        obs = _result("incast-32", engine)._obs
        hist = obs.metrics.histograms.get(f"fct_slowdown.packet.{engine}")
        assert hist is not None
        assert sum(hist.counts) == 32
        # The burst contends with four elephants, so responses cannot
        # complete at ideal time: all mass sits above slowdown 1
        # (counts[0] = underflow below edge 0, counts[1] = [0, 1)).
        assert np.asarray(hist.edges)[1] == 1.0
        assert hist.counts[0] == 0 and hist.counts[1] == 0


class TestVaryingCapacity:
    def test_exercises_two_plus_transitions(self):
        scenario = get_preset("varying-capacity")
        assert scenario.n_capacity_transitions() >= 2

    @pytest.mark.parametrize("engine", PACKET_ENGINES)
    def test_capacity_steps_land_in_obs(self, engine):
        obs = _result("varying-capacity", engine)._obs
        counts = obs.event_counts(engine=f"packet.{engine}")
        assert counts.get("capacity_change", 0) >= 2

    @pytest.mark.parametrize("engine", PACKET_ENGINES)
    def test_utilization_measured_against_integral(self, engine):
        res = _result("varying-capacity", engine)
        # BCN keeps the reduced-capacity link busy: against nominal C
        # this would read ~0.84, against the integral it is ~1.
        assert res.utilization() > 0.95
        assert res.capacity_integral < (
            res.scenario.params.capacity * res.scenario.duration)


class TestLossyOutage:
    @pytest.mark.parametrize("engine", PACKET_ENGINES)
    def test_outage_fills_buffer_and_drops(self, engine):
        res = _result("lossy-outage", engine)
        assert res.sim.dropped_frames > 0
        assert res.sim.queue_peak() == pytest.approx(
            res.scenario.params.buffer_size, rel=0.01)
