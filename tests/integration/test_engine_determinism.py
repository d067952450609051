"""Determinism and cross-engine agreement of the packet engines.

Two guarantees, per ISSUE PR 4:

* **Determinism** — for either engine, the same parameters and seed
  produce a bit-identical :class:`SimulationResult` (series and
  counters), run to run within a process.
* **Agreement** — the batched engine tracks the reference engine within
  a documented tolerance on a fixed dumbbell scenario.  With
  deterministic (counter-based) ``pm`` sampling the two engines see the
  same sampling pattern and agree tightly on aggregate statistics; the
  trajectories themselves are compared in shape, not pointwise, because
  message timing may lag by up to one control quantum.
"""

import random

import numpy as np
import pytest

from repro.core.parameters import BCNParams
from repro.kernels import get_backend
from repro.simulation.network import (PACKET_ENGINES, BCNNetworkSimulator,
                                      _SoAMessages)

requires_compiled = pytest.mark.skipif(
    not get_backend().compiled,
    reason="no compiled backend (cffi + C compiler) available",
)


def _params():
    return BCNParams(
        capacity=1e9,
        n_flows=5,
        q0=1e6,
        buffer_size=8e6,
        w=2.0,
        pm=0.1,
        gi=4.0,
        gd=1 / 128,
        ru=8e6,
    )


def _run(engine, *, duration=0.02, random_sampling=False, **kw):
    net = BCNNetworkSimulator(
        _params(),
        frame_bits=12_000,
        engine=engine,
        random_sampling=random_sampling,
        **kw,
    )
    return net.run(duration)


@pytest.mark.parametrize("engine", PACKET_ENGINES)
@pytest.mark.parametrize("random_sampling", [False, True])
def test_engine_is_bit_deterministic(engine, random_sampling):
    a = _run(engine, random_sampling=random_sampling)
    b = _run(engine, random_sampling=random_sampling)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.queue, b.queue)
    np.testing.assert_array_equal(a.rate_t, b.rate_t)
    np.testing.assert_array_equal(a.rate_total, b.rate_total)
    np.testing.assert_array_equal(a.per_source_rate, b.per_source_rate)
    assert a.dropped_frames == b.dropped_frames
    assert a.forwarded_frames == b.forwarded_frames
    assert a.bcn_negative == b.bcn_negative
    assert a.bcn_positive == b.bcn_positive
    assert a.pauses == b.pauses
    assert a.delivered_bits == b.delivered_bits


@requires_compiled
@pytest.mark.parametrize("random_sampling", [False, True])
def test_compiled_matches_batched_bitwise(random_sampling, numpy_tier):
    """The batched engine's compiled kernels replay its numpy ops' exact
    arithmetic (and their RNG draw discipline), so the two kernel tiers
    match bit for bit."""
    with numpy_tier():
        a = _run("batched", random_sampling=random_sampling)
    b = _run("batched", random_sampling=random_sampling)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.queue, b.queue)
    np.testing.assert_array_equal(a.rate_total, b.rate_total)
    np.testing.assert_array_equal(a.per_source_rate, b.per_source_rate)
    assert a.dropped_frames == b.dropped_frames
    assert a.forwarded_frames == b.forwarded_frames
    assert a.bcn_negative == b.bcn_negative
    assert a.bcn_positive == b.bcn_positive
    assert a.pauses == b.pauses
    assert a.delivered_bits == b.delivered_bits


def _run_heterogeneous_gains():
    """A dumbbell with per-source Gi/Gd jittered +-30% (v6's "gain"
    perturbation): non-uniform regulator laws keep the compiled tier
    off its struct-of-arrays message kernel, so every BCN message goes
    through the window loop's python ``receive_control`` delivery."""
    rng = random.Random(3)
    net = BCNNetworkSimulator(_params(), frame_bits=12_000, engine="batched",
                              regulator_mode="fluid-exact",
                              random_sampling=True)
    for source in net.sources:
        source.regulator.gi *= rng.uniform(0.7, 1.3)
        source.regulator.gd *= rng.uniform(0.7, 1.3)
    assert not _SoAMessages.uniform(net.sources)
    return net, net.run(0.02)


@requires_compiled
def test_compiled_matches_batched_through_the_message_loop(numpy_tier):
    with numpy_tier():
        net_b, a = _run_heterogeneous_gains()
    net_c, b = _run_heterogeneous_gains()
    assert a.bcn_negative + a.bcn_positive > 0
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.queue, b.queue)
    np.testing.assert_array_equal(a.rate_t, b.rate_t)
    np.testing.assert_array_equal(a.rate_total, b.rate_total)
    np.testing.assert_array_equal(a.per_source_rate, b.per_source_rate)
    assert (a.dropped_frames, a.forwarded_frames, a.bcn_negative,
            a.bcn_positive, a.pauses, a.delivered_bits) == (
        b.dropped_frames, b.forwarded_frames, b.bcn_negative,
        b.bcn_positive, b.pauses, b.delivered_bits)
    for sb, sc in zip(net_b.sources, net_c.sources):
        assert sb.regulator.rate == sc.regulator.rate
        assert sb.regulator.updates_applied == sc.regulator.updates_applied
        assert sb.frames_sent == sc.frames_sent


class TestReferenceVsBatched:
    """Fixed-scenario agreement, deterministic sampling.

    Tolerances (documented): utilisation within 2 percentage points,
    queue mean within 15%, queue peak within 25%, message counts within
    20%.  These bound the one-quantum control lag of the batched
    engine; see ``BCNNetworkSimulator`` docs.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        ref = _run("reference", duration=0.04)
        bat = _run("batched", duration=0.04)
        return ref, bat

    def test_utilization_agrees(self, runs):
        ref, bat = runs
        assert bat.utilization() == pytest.approx(ref.utilization(), abs=0.02)

    def test_queue_statistics_agree(self, runs):
        ref, bat = runs
        assert bat.queue_mean() == pytest.approx(ref.queue_mean(), rel=0.15)
        assert bat.queue_peak() == pytest.approx(ref.queue_peak(), rel=0.25)

    def test_control_plane_volume_agrees(self, runs):
        ref, bat = runs
        ref_msgs = ref.bcn_negative + ref.bcn_positive
        bat_msgs = bat.bcn_negative + bat.bcn_positive
        assert bat_msgs == pytest.approx(ref_msgs, rel=0.2)

    def test_no_unexpected_drops(self, runs):
        ref, bat = runs
        # Same buffer, same initial overshoot: drop counts track.
        assert abs(bat.dropped_frames - ref.dropped_frames) <= max(
            5, 0.2 * max(ref.dropped_frames, 1)
        )

    def test_recorder_grids_identical(self, runs):
        ref, bat = runs
        # Both engines sample the queue on the same deterministic grid.
        np.testing.assert_allclose(bat.t, ref.t, rtol=0, atol=1e-12)


class TestScenarioDeterminism:
    """Scenario runs and sweeps are reproducible, per ISSUE PR 6.

    * the same preset + seed produces bit-identical series, counters and
      per-flow FCTs, run to run, on either engine;
    * different seeds produce genuinely different event schedules for
      the randomised presets (the seed actually reaches the generators);
    * the parallel runner's pooled path returns records identical to the
      serial path, FCT distributions included.
    """

    @pytest.mark.parametrize("engine", PACKET_ENGINES)
    def test_scenario_rerun_is_bit_identical(self, engine):
        from repro.scenarios import get_preset, run_scenario

        a = run_scenario(get_preset("churn-heavy", seed=3), engine=engine)
        b = run_scenario(get_preset("churn-heavy", seed=3), engine=engine)
        np.testing.assert_array_equal(a.sim.t, b.sim.t)
        np.testing.assert_array_equal(a.sim.queue, b.sim.queue)
        assert a.sim.delivered_bits == b.sim.delivered_bits
        assert a.sim.pauses == b.sim.pauses
        assert a.sim.dropped_frames == b.sim.dropped_frames
        assert a.fcts == b.fcts
        assert a.injected_bits == b.injected_bits

    def test_seed_reaches_the_event_schedule(self):
        from repro.scenarios import get_preset

        plans = {get_preset("churn-heavy", seed=s).events for s in range(4)}
        assert len(plans) == 4

    def test_per_flow_streams_are_independent_of_population(self):
        """Seeding discipline: flow i's plan does not depend on how
        many other flows exist (per-flow streams keyed ``seed:i``)."""
        from repro.workloads import poisson_short_flows

        few = poisson_short_flows(
            ["h0", "h1"], "sink", arrival_rate=2000.0, demand=1e8,
            size_bits=120_000, horizon=0.02, seed=7)
        again = poisson_short_flows(
            ["h0", "h1"], "sink", arrival_rate=2000.0, demand=1e8,
            size_bits=120_000, horizon=0.02, seed=7)
        assert [(f.src, f.start_time) for f in few] == \
            [(f.src, f.start_time) for f in again]
        other = poisson_short_flows(
            ["h0", "h1"], "sink", arrival_rate=2000.0, demand=1e8,
            size_bits=120_000, horizon=0.02, seed=8)
        assert [f.start_time for f in few] != [f.start_time for f in other]

    @pytest.mark.parametrize("engine", PACKET_ENGINES)
    def test_serial_and_pooled_sweep_records_identical(self, engine):
        from repro.scenarios import run_scenario_sweep

        serial = run_scenario_sweep("dc-baseline", seeds=range(3),
                                    engine=engine, workers=1)
        pooled = run_scenario_sweep("dc-baseline", seeds=range(3),
                                    engine=engine, workers=2)
        assert len(serial.records) == len(pooled.records) == 3
        for rec_s, rec_p in zip(serial.records, pooled.records):
            assert rec_s == rec_p  # fcts lists compare exactly


def test_fluid_matched_mode_agrees_closely():
    """In the validation configuration (fluid-exact regulator, raw
    sigma, ungated positive feedback, fluid-calibrated gains) the
    batched engine reproduces the reference queue trajectory to a few
    percent nrmse."""
    from repro.analysis.validation import compare_series
    from repro.experiments.v2_fluid_vs_packet import validation_params

    kw = dict(
        frame_bits=1500,
        regulator_mode="fluid-exact",
        fb_bits=None,
        require_association=False,
        positive_only_below_q0=False,
        random_sampling=True,
        enable_pause=False,
    )
    params = validation_params()
    ref = BCNNetworkSimulator(params, engine="reference", **kw).run(0.1)
    bat = BCNNetworkSimulator(params, engine="batched", **kw).run(0.1)
    report = compare_series(ref.t, ref.queue, bat.t, bat.queue,
                            reference_level=params.q0)
    assert report.nrmse < 0.15
    assert report.mean_ratio == pytest.approx(1.0, abs=0.1)
