"""Bench P — the batched packet engine vs the event-driven reference.

Paired workloads, each run with ``engine="reference"`` and
``engine="batched"`` on :class:`repro.simulation.network.BCNNetworkSimulator`:

* **dumbbell_fluid_vs_packet** — the V2 validation configuration
  (fluid-exact regulator, Bernoulli sampling, no PAUSE) on a 0.2 s
  horizon; the ISSUE's macrobenchmark — the committed
  ``BENCH_packet.json`` must show ≥ 5×;
* **dumbbell_message_mode** — the Section IV example parameters under
  the draft's literal message semantics (deterministic sampling,
  quantized FB, association-gated positive feedback, PAUSE armed).

Every test tags ``benchmark.extra_info`` with ``workload``/``engine``
and the ``simulated_seconds`` horizon; the reference rows are the
workloads' ``baseline``, and the batched rows record the
``kernel_backend`` the platform gave them.  ``tools/bench_report.py``
pairs each batched row with its workload's baseline, computes ns per
simulated second and the speedup, and fails below ``--min-speedup``.
The batched tests rerun their workload once under an
:class:`~repro.obs.Observability` handle (outside the timed region) and
tag ``extra_info["event_counts"]`` so the committed report also records
what each workload *did*.
"""

from repro.core.parameters import paper_example_params
from repro.experiments.v2_fluid_vs_packet import validation_params
from repro.kernels import get_backend
from repro.obs import Observability
from repro.simulation.network import BCNNetworkSimulator

V2_DURATION = 0.2
MSG_DURATION = 0.03

V2_KWARGS = dict(
    frame_bits=1500,
    regulator_mode="fluid-exact",
    fb_bits=None,
    require_association=False,
    positive_only_below_q0=False,
    random_sampling=True,
    enable_pause=False,
)


def _run_v2(engine, obs=None):
    net = BCNNetworkSimulator(validation_params(), engine=engine, obs=obs,
                              **V2_KWARGS)
    return net.run(V2_DURATION)


def _run_message(engine, obs=None):
    net = BCNNetworkSimulator(paper_example_params(), engine=engine, obs=obs)
    return net.run(MSG_DURATION)


def _event_counts(run, engine):
    obs = Observability()
    run(engine, obs)
    return obs.event_counts()


def test_bench_dumbbell_fluid_vs_packet_batched(benchmark):
    res = benchmark.pedantic(lambda: _run_v2("batched"),
                             rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="dumbbell_fluid_vs_packet", engine="batched",
        kernel_backend=get_backend().name, simulated_seconds=V2_DURATION,
        event_counts=_event_counts(_run_v2, "batched"))
    assert res.forwarded_frames > 0
    assert 0.9 <= res.utilization() <= 1.0 + 1e-9


def test_bench_dumbbell_fluid_vs_packet_reference(benchmark):
    res = benchmark.pedantic(lambda: _run_v2("reference"),
                             rounds=1, iterations=1)
    benchmark.extra_info.update(
        workload="dumbbell_fluid_vs_packet", engine="reference",
        baseline=True, simulated_seconds=V2_DURATION)
    assert res.forwarded_frames > 0


def test_bench_dumbbell_message_mode_batched(benchmark):
    res = benchmark.pedantic(lambda: _run_message("batched"),
                             rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="dumbbell_message_mode", engine="batched",
        kernel_backend=get_backend().name, simulated_seconds=MSG_DURATION,
        event_counts=_event_counts(_run_message, "batched"))
    assert res.bcn_negative > 0


def test_bench_dumbbell_message_mode_reference(benchmark):
    res = benchmark.pedantic(lambda: _run_message("reference"),
                             rounds=1, iterations=1)
    benchmark.extra_info.update(
        workload="dumbbell_message_mode", engine="reference",
        baseline=True, simulated_seconds=MSG_DURATION)
    assert res.bcn_negative > 0
