"""Property-based tests for the closed-form trajectory machinery.

Random parameters and initial conditions; the invariants come straight
from the mathematics: the closed forms must satisfy their ODEs, crossing
solvers must land on their loci, extrema must be true extrema, and the
composed trajectory must be continuous across switches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eigen import eigenstructure
from repro.core.parameters import NormalizedParams
from repro.core.phase_plane import PhasePlaneAnalyzer
from repro.core.trajectories import linear_trajectory

# Keep magnitudes within a few orders so FP tolerances stay meaningful.
n_values = st.floats(min_value=0.05, max_value=50.0)
k_values = st.floats(min_value=0.05, max_value=5.0)
coords = st.floats(min_value=-50.0, max_value=50.0)
times = st.floats(min_value=0.0, max_value=20.0)


def _beyond(gap):
    """A coordinate in [-50, 50] with magnitude strictly above ``gap``."""
    if gap < 0.0:
        return coords
    return st.one_of(
        st.floats(min_value=-50.0, max_value=-gap, exclude_max=True),
        st.floats(min_value=gap, max_value=50.0, exclude_min=True),
    )


@st.composite
def starts(draw, min_l1):
    """``(x0, y0)`` in the coords square with ``|x0| + |y0| > min_l1``,
    drawn constructively (no filtering): ``y0`` is drawn clear of the
    gap ``x0`` leaves to the threshold."""
    x0 = draw(coords)
    return x0, draw(_beyond(min_l1 - abs(x0)))


@given(n=n_values, k=k_values, start=starts(1e-3), t=times)
@settings(max_examples=150, deadline=None)
def test_closed_form_satisfies_ode(n, k, start, t):
    """x' = y and y' = -n x - k n y, checked by central differences."""
    x0, y0 = start
    eig = eigenstructure(n, k)
    traj = linear_trajectory(eig, x0, y0)
    h = 1e-6 / max(1.0, k * n)
    t += h  # central differences need t - h >= 0
    x_m, y_m = traj.state(t - h)
    x_0, y_0t = traj.state(t)
    x_p, y_p = traj.state(t + h)
    dx = (x_p - x_m) / (2 * h)
    dy = (y_p - y_m) / (2 * h)
    scale = max(abs(x_0), abs(y_0t), abs(x0), abs(y0), 1.0) * max(1.0, n * k, n)
    assert dx == pytest.approx(y_0t, abs=1e-3 * scale)
    assert dy == pytest.approx(-n * x_0 - k * n * y_0t, abs=1e-3 * scale)


@given(n=n_values, k=k_values, start=starts(1e-3))
@settings(max_examples=150, deadline=None)
def test_first_y_zero_really_zeroes_y(n, k, start):
    x0, y0 = start
    traj = linear_trajectory(eigenstructure(n, k), x0, y0)
    t_star = traj.first_y_zero_time()
    if t_star is None:
        return
    _, y = traj.state(t_star)
    scale = max(abs(x0), abs(y0), 1.0)
    assert abs(y) < 1e-7 * scale * max(1.0, n)


@given(n=n_values, k=k_values, line_k=k_values, start=starts(1e-3))
@settings(max_examples=150, deadline=None)
def test_line_crossing_lands_on_line(n, k, line_k, start):
    x0, y0 = start
    traj = linear_trajectory(eigenstructure(n, k), x0, y0)
    t_cross = traj.first_line_crossing_time(line_k)
    if t_cross is None:
        return
    x, y = traj.state(t_cross)
    scale = max(abs(x0), abs(y0), 1.0)
    assert abs(x + line_k * y) < 1e-6 * scale * (1.0 + line_k)


@given(n=n_values, k=k_values, x0=coords, y0=_beyond(1e-3))
@settings(max_examples=100, deadline=None)
def test_extremum_bounds_neighbourhood(n, k, x0, y0):
    """The extremum dominates x in a neighbourhood of its time."""
    traj = linear_trajectory(eigenstructure(n, k), x0, y0)
    t_star = traj.first_y_zero_time()
    if t_star is None:
        return
    ext = traj.extremum_x()
    window = np.linspace(max(0.0, t_star * 0.9), t_star * 1.1, 41)
    xs = traj.states(window)[:, 0]
    tol = 1e-9 * max(abs(ext), 1.0)
    if y0 > 0:
        assert ext >= xs.max() - tol
    else:
        assert ext <= xs.min() + tol


@given(n=n_values, k=k_values, start=starts(1e-2), t=times)
@settings(max_examples=100, deadline=None)
def test_trajectories_decay_to_origin(n, k, start, t):
    """Both subsystems are asymptotically stable (Proposition 1):
    the state norm at large time is below its initial value."""
    x0, y0 = start
    eig = eigenstructure(n, k)
    traj = linear_trajectory(eig, x0, y0)
    # pick a time several slowest-time-constants out
    slow = abs(max(eig.lambda1.real, eig.lambda2.real)) or 1.0
    t_far = 50.0 / slow
    x, y = traj.state(t_far)
    assert math.hypot(x, y) < 1e-6 * math.hypot(x0, y0) + 1e-9


@given(
    a=st.floats(min_value=0.1, max_value=30.0),
    b=st.floats(min_value=0.002, max_value=0.3),
    k=st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_composition_continuous_and_on_line(a, b, k):
    p = NormalizedParams(a=a, b=b, k=k, capacity=100.0, q0=10.0,
                         buffer_size=1e12)
    traj = PhasePlaneAnalyzer(p).compose(max_switches=12)
    for prev, nxt in zip(traj.segments, traj.segments[1:]):
        ex, ey = prev.end_state()
        sx, sy = nxt.start_state
        scale = max(abs(ex), abs(ey), 1.0)
        assert abs(ex - sx) < 1e-7 * scale
        assert abs(ey - sy) < 1e-7 * scale
    for _, x, y in traj.switch_states:
        assert abs(x + p.k * y) < 1e-6 * (abs(x) + p.k * abs(y) + 1.0)


@given(
    a=st.floats(min_value=0.1, max_value=30.0),
    b=st.floats(min_value=0.002, max_value=0.3),
    k=st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_composed_extrema_alternate_in_sign(a, b, k):
    p = NormalizedParams(a=a, b=b, k=k, capacity=100.0, q0=10.0,
                         buffer_size=1e12)
    traj = PhasePlaneAnalyzer(p).compose(max_switches=12)
    signs = [math.copysign(1.0, x) for _, x in traj.extrema if x != 0.0]
    assert all(s1 != s2 for s1, s2 in zip(signs, signs[1:]))
