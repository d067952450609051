"""Differential properties: batch RK4 kernel vs the solve_ivp reference.

The batch integrator (:mod:`repro.fluid.batch`) re-implements the
switched-fluid semantics of :func:`repro.fluid.integrate.simulate_fluid`
with a completely different numerical engine (fixed-step RK4 + Hermite
event refinement instead of per-segment adaptive ``solve_ivp``).  Random
parameters and initial conditions must therefore agree on everything the
analysis layer consumes:

* sampled states within the documented tolerance of the natural scales;
* identical switch counts, buffer-hit flags and end reasons;
* the batched Poincaré return map within tolerance of the scalar one.

Grazing geometries (trajectory tangent to a buffer level or barely
reaching the switching line) are `assume`-d away: there the *reference*
is itself event-order fragile, so no fixed tolerance is meaningful.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.limit_cycle import return_map
from repro.core.parameters import NormalizedParams
from repro.fluid.batch import (
    batch_return_map,
    default_time_step,
    simulate_fluid_batch,
)
from repro.fluid.integrate import simulate_fluid

#: Documented state tolerance relative to the natural scales (q0, C).
STATE_RTOL = 2e-3

n_values = st.floats(min_value=0.5, max_value=30.0)
k_values = st.floats(min_value=0.05, max_value=0.5)
cap_values = st.floats(min_value=20.0, max_value=200.0)
q0_values = st.floats(min_value=2.0, max_value=20.0)
buf_factors = st.floats(min_value=4.0, max_value=40.0)
x0_fracs = st.floats(min_value=-0.85, max_value=0.85)
y0_fracs = st.floats(min_value=-0.35, max_value=0.35)
modes = st.sampled_from(["nonlinear", "linearized", "physical"])


def make_params(n_inc, n_dec, k, capacity, q0, buf_factor):
    return NormalizedParams(
        a=n_inc,
        b=n_dec / capacity,
        k=k,
        capacity=capacity,
        q0=q0,
        buffer_size=buf_factor * q0,
    )


def not_grazing(traj, p):
    """Reject runs whose events sit too close to a tangency.

    Buffer crossings with ``|y|`` near zero and extrema near a buffer
    level are the geometries where event ordering depends on solver
    noise rather than on the dynamics.
    """
    x_full = p.buffer_size - p.q0
    x_empty = -p.q0
    for e in traj.events:
        if e.kind in ("buffer_full", "buffer_empty"):
            if abs(e.y) < 1e-3 * p.capacity:
                return False
        if e.kind == "extremum":
            gap = min(abs(e.x - x_full), abs(e.x - x_empty))
            if gap < 1e-3 * p.q0:
                return False
        if e.kind == "switch":
            # near-tangential line crossing: d(x+ky)/dt = y on the line
            if abs(e.y) < 1e-4 * p.capacity:
                return False
    return True


@given(
    n_inc=n_values,
    n_dec=n_values,
    k=k_values,
    capacity=cap_values,
    q0=q0_values,
    buf_factor=buf_factors,
    x0_frac=x0_fracs,
    y0_frac=y0_fracs,
    mode=modes,
)
@settings(max_examples=30, deadline=None)
def test_batch_matches_reference(
    n_inc, n_dec, k, capacity, q0, buf_factor, x0_frac, y0_frac, mode
):
    p = make_params(n_inc, n_dec, k, capacity, q0, buf_factor)
    x0 = x0_frac * p.q0
    y0 = y0_frac * p.capacity
    # a few hundred RK4 steps regardless of the natural rates
    t_max = 400.0 * default_time_step(p)

    ref = simulate_fluid(p, x0=x0, y0=y0, t_max=t_max, mode=mode,
                         max_switches=40)
    assume(not_grazing(ref, p))

    res = simulate_fluid_batch(p, np.array([x0]), np.array([y0]),
                               t_max=t_max, mode=mode, max_switches=40)
    tr = res.trajectory(0)

    assert int(res.switch_counts[0]) == len(ref.switch_times)
    assert tr.end_reason == ref.end_reason
    assert bool(res.hit_buffer_full()[0]) == ref.hit_buffer_full()
    assert bool(res.converged[0]) == ref.converged

    # Compare at the batch sample times: the batch node states are the
    # kernel's actual output, while interpolating the uniform batch grid
    # *across* a pinning corner would charge the kernel for the
    # comparison's own linear-interpolation error (~|y_pin| dt / 2).
    # The reference series has a node at every event, so interpolating
    # it at these times stays within one smooth piece.
    sel = tr.t <= min(ref.t[-1], tr.t[-1])
    tt = tr.t[sel]
    x_err = np.abs(np.interp(tt, ref.t, ref.x) - tr.x[sel])
    y_err = np.abs(np.interp(tt, ref.t, ref.y) - tr.y[sel])
    # tolerance scales: the larger of the natural scale and the actual
    # excursion of the reference orbit (|y0| >> q0*sqrt(n) drives x far
    # beyond q0, and errors are relative to amplitude, not to q0)
    x_scale = max(p.q0, float(np.abs(ref.x).max()),
                  p.k * float(np.abs(ref.y).max()))
    y_scale = max(p.capacity, float(np.abs(ref.y).max()))
    assert x_err.max() <= STATE_RTOL * x_scale
    assert y_err.max() <= STATE_RTOL * y_scale


@given(
    n_inc=st.floats(min_value=1.0, max_value=20.0),
    n_dec=st.floats(min_value=1.0, max_value=20.0),
    k=st.floats(min_value=0.02, max_value=0.3),
    capacity=cap_values,
    q0=q0_values,
    y_frac=st.floats(min_value=0.05, max_value=0.7),
)
@settings(max_examples=15, deadline=None)
def test_batch_return_map_matches_scalar(
    n_inc, n_dec, k, capacity, q0, y_frac
):
    """Case-1 spiral pairs: the batched map tracks the scalar map."""
    p = make_params(n_inc, n_dec, k, capacity, q0, 40.0)
    # both regions must be spirals for the return map to exist; the
    # strategy ranges guarantee it (k^2 n <= 0.09 * 20)
    assert k * k * max(n_inc, n_dec) < 3.6
    y = y_frac * p.capacity
    got = batch_return_map(p, np.array([y]))[0]
    want = return_map(p, y)
    assert got == pytest.approx(want, abs=1e-5 * p.capacity)


@given(mode=st.sampled_from(["nonlinear", "linearized"]))
@settings(max_examples=4, deadline=None)
def test_batch_ensemble_rows_equal_individual_runs(mode):
    """Row i of an ensemble equals the same start integrated alone."""
    p = NormalizedParams(a=2.0, b=0.02, k=0.1, capacity=100.0, q0=10.0,
                         buffer_size=200.0)
    x0 = np.array([-0.8, -0.3, 0.4]) * p.q0
    y0 = np.array([0.0, 0.2, -0.1]) * p.capacity
    batch = simulate_fluid_batch(p, x0, y0, t_max=8.0, mode=mode,
                                 max_switches=20)
    for i in range(x0.size):
        solo = simulate_fluid_batch(p, x0[i:i + 1], y0[i:i + 1], t_max=8.0,
                                    mode=mode, max_switches=20)
        np.testing.assert_allclose(batch.x[:, i], solo.x[:, 0], rtol=0,
                                   atol=1e-12 * p.q0)
        assert int(batch.switch_counts[i]) == int(solo.switch_counts[0])
