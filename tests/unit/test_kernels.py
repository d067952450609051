"""Unit tests for the compiled kernel package (:mod:`repro.kernels`).

Backend selection, the differential guarantees of the individual
kernels against their pure-python reference bodies, the batch fluid
integrator's two tiers, and the one-time warm-up span.  Tests marked
``requires_compiled`` exercise the compiled (cffi) tier and skip on the
pure-numpy fallback; everything else runs on every tier.
"""

import numpy as np
import pytest

from repro.kernels import (get_backend, reset_backend,
                           simulate_fluid_batch_compiled)
from repro.kernels._backend import KernelBackend, consume_warmup_span
from repro.simulation.frames import BCNMessage
from repro.simulation.source import RateRegulator

requires_compiled = pytest.mark.skipif(
    not get_backend().compiled,
    reason="no compiled backend (cffi + C compiler) available",
)


# -- backend selection ------------------------------------------------------


def test_numpy_tier_is_the_scalar_reference():
    be = KernelBackend()
    assert be.name == "numpy"
    assert not be.compiled
    assert be.warmup_seconds == 0.0


def test_unknown_backend_env_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
    reset_backend()
    try:
        with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
            get_backend()
    finally:
        monkeypatch.undo()
        reset_backend()


def test_numpy_env_selects_the_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
    reset_backend()
    try:
        be = get_backend()
        assert be.name == "numpy"
        assert not be.compiled
    finally:
        monkeypatch.undo()
        reset_backend()


def test_warmup_span_is_reported_once_per_process():
    class Spy:
        enabled = True

        def __init__(self):
            self.spans = []

        def add_span(self, name, seconds):
            self.spans.append((name, seconds))

    reset_backend()
    be = get_backend()
    first, second = Spy(), Spy()
    consume_warmup_span(first)
    consume_warmup_span(second)
    if be.warmup_seconds > 0.0:
        assert len(first.spans) == 1
        name, seconds = first.spans[0]
        assert name == f"kernels.jit_warmup.{be.name}"
        assert seconds == be.warmup_seconds
    else:
        assert first.spans == []
    assert second.spans == []  # consumed: steady-state stays clean


# -- merge_trains -----------------------------------------------------------


def _reference_merge(first, gaps, counts, assoc, d):
    """The batched engine's repeat/cumsum/stable-argsort train merge."""
    n = first.size
    total = int(counts.sum())
    srcs = np.repeat(np.arange(n), counts)
    ends = np.cumsum(counts)
    offsets = np.arange(total) - np.repeat(ends - counts, counts)
    times = np.repeat(first, counts) + np.repeat(gaps, counts) * offsets + d
    order = np.argsort(times, kind="stable")
    return times[order], srcs[order], assoc[srcs[order]]


@requires_compiled
def test_merge_trains_matches_argsort_merge():
    rng = np.random.default_rng(3)
    n = 8
    first = rng.uniform(0.0, 1e-3, n)
    gaps = rng.uniform(1e-6, 1e-4, n)
    counts = rng.integers(0, 50, n).astype(np.int64)
    assoc = rng.integers(0, 2, n).astype(np.uint8)
    d = 5e-6
    exp_t, exp_src, exp_assoc = _reference_merge(first, gaps, counts,
                                                 assoc, d)
    total = int(counts.sum())
    out_t = np.empty(total)
    out_src = np.empty(total, dtype=np.int64)
    out_assoc = np.empty(total, dtype=np.uint8)
    get_backend().merge_trains(first, gaps, counts, assoc, d,
                               out_t, out_src, out_assoc)
    np.testing.assert_array_equal(out_t, exp_t)
    np.testing.assert_array_equal(out_src, exp_src)
    np.testing.assert_array_equal(out_assoc, exp_assoc)


@requires_compiled
def test_merge_trains_breaks_time_ties_by_source():
    # Identical trains: every emission time collides across sources, and
    # the stable argsort the batched engine uses resolves each tie in
    # ascending source order — merge_trains must do the same.
    first = np.array([1e-3, 1e-3])
    gaps = np.array([1e-5, 1e-5])
    counts = np.array([3, 3], dtype=np.int64)
    assoc = np.array([1, 0], dtype=np.uint8)
    out_t = np.empty(6)
    out_src = np.empty(6, dtype=np.int64)
    out_assoc = np.empty(6, dtype=np.uint8)
    get_backend().merge_trains(first, gaps, counts, assoc, 0.0,
                               out_t, out_src, out_assoc)
    np.testing.assert_array_equal(out_src, [0, 1, 0, 1, 0, 1])
    np.testing.assert_array_equal(out_assoc, [1, 0, 1, 0, 1, 0])


# -- apply_messages ---------------------------------------------------------


_MODES = [("message", 0), ("fluid-euler", 1), ("fluid-exact", 2)]


@requires_compiled
@pytest.mark.parametrize("mode, code", _MODES)
def test_apply_messages_matches_regulator_objects(mode, code):
    rng = np.random.default_rng(7)
    n, n_msg = 6, 400
    gi, gd, ru, max_dt = 4.0, 1 / 128, 8e6, 5e-4
    d, t_commit = 5e-6, 0.0105
    line_rate = np.full(n, 1e9)
    min_rate = np.full(n, 1e5)
    regs = [
        RateRegulator(gi=gi, gd=gd, ru=ru, initial_rate=2e7, min_rate=1e5,
                      line_rate=1e9, mode=mode, max_dt=max_dt)
        for _ in range(n)
    ]
    msg_t = np.sort(rng.uniform(0.0, 0.01, n_msg))
    msg_src = rng.integers(0, n, n_msg).astype(np.int64)
    msg_sigma = rng.uniform(-3e6, 3e6, n_msg)
    msg_fb = rng.uniform(-128.0, 127.0, n_msg)

    # object path: the batched orchestrator's delivery loop
    owed_obj = np.zeros(n)
    total_obj = float(sum(r.rate for r in regs))
    for k in range(n_msg):
        i = int(msg_src[k])
        now = float(msg_t[k]) + d
        before = regs[i].rate
        regs[i].apply(
            BCNMessage(da=i, sa="cp", cpid="cp", fb=float(msg_fb[k]),
                       q_off=0.0, q_delta=0.0, fb_raw=float(msg_sigma[k]),
                       sent_at=float(msg_t[k])),
            now,
        )
        after = regs[i].rate
        if after != before:
            delta = after - before
            owed_obj[i] += delta * max(t_commit - now, 0.0)
            total_obj += delta

    # kernel path: struct-of-array state
    rate = np.full(n, 2e7)
    last_update = np.full(n, np.nan)
    assoc8 = np.zeros(n, dtype=np.uint8)
    updates = np.zeros(n, dtype=np.int64)
    owed = np.zeros(n)
    out_d = np.array([n * 2e7])
    get_backend().apply_messages(
        msg_t, msg_src, msg_fb, msg_sigma, code, gi, gd, ru, max_dt,
        d, t_commit, rate, last_update, assoc8, updates,
        min_rate, line_rate, owed, out_d,
    )

    np.testing.assert_array_equal(rate, [r.rate for r in regs])
    np.testing.assert_array_equal(owed, owed_obj)
    assert float(out_d[0]) == total_obj
    np.testing.assert_array_equal(updates,
                                  [r.updates_applied for r in regs])
    for i, reg in enumerate(regs):
        assert bool(assoc8[i]) == (reg.associated_cpid == "cp")
        lu = float(last_update[i])
        if reg._last_update is None:
            assert lu != lu  # NaN encodes "never updated"
        else:
            assert lu == reg._last_update


# -- pacing kernels ---------------------------------------------------------


def _pacing_case(seed=5, n=7):
    rng = np.random.default_rng(seed)
    next_emit = rng.uniform(0.0, 2e-3, n)
    paused = np.where(rng.random(n) < 0.4,
                      rng.uniform(0.0, 2e-3, n), 0.0)
    active = (rng.random(n) < 0.8).astype(bool)
    remaining = np.where(rng.random(n) < 0.5,
                         rng.integers(1, 40, n).astype(float), np.inf)
    gaps = rng.uniform(1e-5, 2e-4, n)
    return next_emit, paused, active, remaining, gaps


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_pacing_plan_matches_scalar_reference(seed):
    from repro.kernels import _scalar

    next_emit, paused, active, remaining, gaps = _pacing_case(seed)
    until = 1.5e-3
    n = next_emit.size
    ref_first, ref_counts = np.empty(n), np.empty(n, dtype=np.int64)
    ref_total = _scalar.pacing_plan(next_emit, paused, active, remaining,
                                    gaps, until, ref_first, ref_counts)
    first, counts = np.empty(n), np.empty(n, dtype=np.int64)
    total = get_backend().pacing_plan(next_emit, paused, active, remaining,
                                      gaps, until, first, counts)
    assert int(total) == ref_total == int(counts.sum())
    np.testing.assert_array_equal(first, ref_first)
    np.testing.assert_array_equal(counts, ref_counts)
    # a paused or inactive source never plans emissions before resume
    assert np.all(first >= next_emit)
    assert np.all(counts[~active] == 0)
    assert np.all(counts <= np.where(np.isfinite(remaining),
                                     remaining, np.inf))


@pytest.mark.parametrize("truncate", [False, True])
def test_pacing_commit_matches_scalar_reference(truncate):
    from repro.kernels import _scalar

    next_emit, paused, _, remaining, gaps = _pacing_case(9)
    until = 1.5e-3
    n = next_emit.size
    active = np.ones(n, dtype=bool)  # everyone emits: exercise finishes
    remaining[:3] = [1.0, 2.0, 3.0]  # force some sources to run out
    first, counts = np.empty(n), np.empty(n, dtype=np.int64)
    total = int(get_backend().pacing_plan(
        next_emit, paused, active, remaining, gaps, until, first, counts))
    assert total > 0
    srcs = np.repeat(np.arange(n, dtype=np.int64), counts)
    m_committed = total // 2 if truncate else total

    def run(fn):
        ne, rem = next_emit.copy(), remaining.copy()
        act = active.copy().astype(np.uint8)
        fa = np.zeros(n, dtype=np.int64)
        comm = np.empty(n, dtype=np.int64)
        fin_idx = np.empty(n, dtype=np.int64)
        fin_t = np.empty(n)
        n_fin = fn(srcs, m_committed, first, gaps, counts, 1,
                   ne, rem, act, fa, comm, fin_idx, fin_t)
        return ne, rem, act, fa, int(n_fin), fin_idx, fin_t

    r = run(_scalar.pacing_commit)
    k = run(get_backend().pacing_commit)
    for ref, got in zip(r[:5], k[:5]):
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(k[5][:k[4]], r[5][:r[4]])
    np.testing.assert_array_equal(k[6][:k[4]], r[6][:r[4]])
    # finished sources really ran out, and their finish time is the
    # instant their last committed frame was emitted
    for j in range(k[4]):
        i = int(k[5][j])
        assert k[1][i] <= 0.0 and not k[2][i]


def test_owed_repay_matches_scalar_reference():
    from repro.kernels import _scalar

    rng = np.random.default_rng(21)
    n = 8
    owed = np.where(rng.random(n) < 0.5, rng.uniform(-2e4, 2e4, n), 0.0)
    rates = rng.uniform(1e6, 1e9, n)
    until = 1e-3
    next_emit = np.where(rng.random(n) < 0.7,
                         until + rng.uniform(0.0, 1e-3, n),
                         rng.uniform(0.0, until, n))
    nxt = float(np.nextafter(until, np.inf))
    ref_owed, ref_ne = owed.copy(), next_emit.copy()
    _scalar.owed_repay(ref_owed, ref_ne, rates, until, nxt)
    got_owed, got_ne = owed.copy(), next_emit.copy()
    get_backend().owed_repay(got_owed, got_ne, rates, until, nxt)
    np.testing.assert_array_equal(got_owed, ref_owed)
    np.testing.assert_array_equal(got_ne, ref_ne)
    # sources already due before ``until`` are untouched
    before = next_emit <= until
    np.testing.assert_array_equal(got_ne[before], next_emit[before])
    np.testing.assert_array_equal(got_owed[before], owed[before])
    # repayment never reschedules a deferred source into the closed window
    assert np.all(got_ne[~before] >= nxt)


def test_bound_closures_mutate_like_direct_calls():
    """``bind_*`` closures must be call-for-call identical to the plain
    entry points on every tier (the cffi tier overrides them with
    precomputed pointers; the base class wraps the generic methods)."""
    be = get_backend()
    next_emit, paused, active, remaining, gaps = _pacing_case(31)
    until = 1.5e-3
    n = next_emit.size
    active = active.astype(np.uint8)

    d_first, d_counts = np.empty(n), np.empty(n, dtype=np.int64)
    d_total = int(be.pacing_plan(next_emit.copy(), paused, active,
                                 remaining.copy(), gaps, until,
                                 d_first, d_counts))

    b_ne, b_rem = next_emit.copy(), remaining.copy()
    b_first, b_counts = np.empty(n), np.empty(n, dtype=np.int64)
    bound_plan = be.bind_pacing_plan(b_ne, paused, active, b_rem, gaps,
                                     b_first, b_counts)
    assert int(bound_plan(until)) == d_total
    np.testing.assert_array_equal(b_first, d_first)
    np.testing.assert_array_equal(b_counts, d_counts)

    # owed_repay through a bound closure, twice (the closure must stay
    # valid across calls — pointers are cached, state is not)
    owed = np.array([1e4, 0.0, 5e3])
    ne = np.array([2e-3, 5e-4, 3e-3])
    rates = np.array([1e8, 1e8, 1e8])
    ref_owed, ref_ne = owed.copy(), ne.copy()
    be.owed_repay(ref_owed, ref_ne, rates, 1e-3,
                  float(np.nextafter(1e-3, np.inf)))
    be.owed_repay(ref_owed, ref_ne, rates, 2.5e-3,
                  float(np.nextafter(2.5e-3, np.inf)))
    bound_owed = be.bind_owed_repay(owed, ne, rates)
    bound_owed(1e-3, float(np.nextafter(1e-3, np.inf)))
    bound_owed(2.5e-3, float(np.nextafter(2.5e-3, np.inf)))
    np.testing.assert_array_equal(owed, ref_owed)
    np.testing.assert_array_equal(ne, ref_ne)


# -- fluid kernel -----------------------------------------------------------


def _fluid_case():
    from repro.experiments.presets import CASE1

    x0 = np.linspace(-0.5, 0.4, 6) * CASE1.q0
    return CASE1, x0


@requires_compiled
@pytest.mark.parametrize("mode", ["nonlinear", "linearized"])
def test_fluid_compiled_is_bitwise_equal_to_numpy(mode, numpy_tier):
    from repro.fluid.batch import simulate_fluid_batch

    p, x0 = _fluid_case()
    with numpy_tier():
        ref = simulate_fluid_batch(p, x0, 0.0, t_max=20.0, mode=mode)
    com = simulate_fluid_batch_compiled(p, x0, 0.0, t_max=20.0, mode=mode)
    np.testing.assert_array_equal(com.t, ref.t)
    np.testing.assert_array_equal(com.x, ref.x)
    np.testing.assert_array_equal(com.y, ref.y)
    np.testing.assert_array_equal(com.t_end, ref.t_end)
    np.testing.assert_array_equal(com.x_end, ref.x_end)
    np.testing.assert_array_equal(com.switch_counts, ref.switch_counts)
    np.testing.assert_array_equal(com.converged, ref.converged)
    assert com.end_reason == ref.end_reason
    assert com.events == ref.events


@requires_compiled
def test_fluid_compiled_physical_mode_within_libm_tolerance(numpy_tier):
    from repro.fluid.batch import simulate_fluid_batch

    p, x0 = _fluid_case()
    with numpy_tier():
        ref = simulate_fluid_batch(p, x0, 0.0, t_max=20.0, mode="physical")
    com = simulate_fluid_batch_compiled(p, x0, 0.0, t_max=20.0,
                                        mode="physical")
    scale = max(p.q0, p.capacity * 1e-3)
    assert np.max(np.abs(com.x - ref.x)) <= 1e-9 * scale
    np.testing.assert_array_equal(com.switch_counts, ref.switch_counts)


@requires_compiled
def test_simulate_fluid_batch_runs_the_compiled_tier_when_present(
        numpy_tier):
    """The platform picks the fluid tier: with a compiled backend the
    public entry point is the kernel (same arrays, same obs stream under
    the one ``fluid.batch`` engine tag as the numpy loop)."""
    from repro.fluid.batch import simulate_fluid_batch
    from repro.obs import Observability

    p, x0 = _fluid_case()
    obs_np, obs_c = Observability(), Observability()
    with numpy_tier():
        ref = simulate_fluid_batch(p, x0, 0.0, t_max=5.0, obs=obs_np)
    out = simulate_fluid_batch(p, x0, 0.0, t_max=5.0, obs=obs_c)
    kernel = simulate_fluid_batch_compiled(p, x0, 0.0, t_max=5.0)
    np.testing.assert_array_equal(out.x, ref.x)
    np.testing.assert_array_equal(out.x, kernel.x)
    assert out.events == ref.events

    assert obs_c.trace.records == obs_np.trace.records
    assert {r.engine for r in obs_c.trace.records} == {"fluid.batch"}
    assert obs_c.metrics.snapshot() == obs_np.metrics.snapshot()


def test_fluid_without_a_compiled_backend_runs_numpy(numpy_tier):
    from repro.fluid.batch import simulate_fluid_batch

    p, x0 = _fluid_case()
    with numpy_tier():
        out = simulate_fluid_batch(p, x0, 0.0, t_max=5.0)
        direct = simulate_fluid_batch_compiled(p, x0, 0.0, t_max=5.0)
    assert out.x.dtype == np.float64
    np.testing.assert_array_equal(out.x, direct.x)
