"""Compiled tier of the batch fluid integrator.

:func:`simulate_fluid_batch_compiled` mirrors
:func:`repro.fluid.batch.simulate_fluid_batch` — same signature, same
:class:`~repro.fluid.batch.BatchFluidResult` — but runs the per-row
switched RK4 + cubic-Hermite event refinement as one compiled kernel
call instead of a python stepping loop over numpy temporaries;
``simulate_fluid_batch`` calls it whenever the platform has a compiled
backend.  The kernel commits the same floating-point operations in the
same order as the numpy implementation, so trajectories match
bit-for-bit in the ``nonlinear``/``linearized`` modes (``physical``
mode's pinned closed forms call ``exp``/``log``, identical through
libm but allowed a ~1e-12 relative tolerance against numpy's SIMD
vectorized transcendentals).  Without a compiled backend this module
delegates to the numpy implementation.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ._backend import KernelBackend, consume_warmup_span, get_backend

__all__ = ["simulate_fluid_batch_compiled"]

#: event kind codes emitted by the kernel, in ``FluidEvent.kind`` terms
_KINDS = ("switch", "extremum", "buffer_full", "buffer_empty")


def simulate_fluid_batch_compiled(
    params,
    x0,
    y0=0.0,
    *,
    t_max: float = 10.0,
    mode: str = "nonlinear",
    max_switches: int = 500,
    dt: float | None = None,
    dt_scale: float = 0.02,
    convergence_rtol: float | None = None,
    obs=None,
    backend: KernelBackend | None = None,
):
    """Compiled drop-in for :func:`repro.fluid.batch.simulate_fluid_batch`."""
    from ..fluid import batch as _batch

    if convergence_rtol is None:
        convergence_rtol = _batch._CONVERGENCE_RTOL
    be = backend if backend is not None else get_backend()
    numpy_kwargs = dict(t_max=t_max, mode=mode, max_switches=max_switches,
                      dt=dt, dt_scale=dt_scale,
                      convergence_rtol=convergence_rtol, obs=obs)
    if not be.compiled:
        return _batch._simulate_fluid_batch_numpy(params, x0, y0,
                                                  **numpy_kwargs)

    p = _batch.as_normalized(params)
    if dt is None:
        dt = _batch.default_time_step(p, dt_scale=dt_scale)
    n_steps = max(1, math.ceil(t_max / dt))
    if n_steps > _batch._MAX_STEPS:
        raise ValueError(
            f"t_max/dt = {n_steps} exceeds {_batch._MAX_STEPS} steps; "
            "pass a larger dt or a shorter horizon"
        )

    x0a = np.atleast_1d(np.asarray(x0, dtype=float))
    y0a = np.atleast_1d(np.asarray(y0, dtype=float))
    xb, yb = np.broadcast_arrays(x0a, y0a)
    xr = np.ascontiguousarray(xb)
    yr = np.ascontiguousarray(yb)
    m = xr.size

    t_grid = np.linspace(0.0, t_max, n_steps + 1)
    xs = np.zeros((n_steps + 1) * m)
    ys = np.zeros((n_steps + 1) * m)
    reason = np.zeros(m, dtype=np.int8)
    switches = np.zeros(m, dtype=np.int64)
    t_end = np.zeros(m)
    x_end = np.zeros(m)
    y_end = np.zeros(m)
    ev_cap = 8 * (max_switches + 8)
    n_events = np.zeros(m, dtype=np.int64)
    ev_t = np.zeros(m * ev_cap)
    ev_kind = np.zeros(m * ev_cap, dtype=np.int8)
    ev_x = np.zeros(m * ev_cap)
    ev_y = np.zeros(m * ev_cap)
    out_i = np.zeros(2, dtype=np.int64)

    started = time.perf_counter()  # repro-lint: disable=wall-clock -- kernel span timing
    be.fluid_rows(
        xr, yr, t_grid, p.a, p.b, p.capacity, p.k, p.q0,
        p.buffer_size - p.q0, -p.q0,
        1 if mode == "linearized" else 0,
        1 if mode == "physical" else 0,
        int(max_switches), float(convergence_rtol), float(t_max),
        xs, ys, reason, switches, t_end, x_end, y_end,
        ev_cap, n_events, ev_t, ev_kind, ev_x, ev_y, out_i,
    )
    kernel_seconds = time.perf_counter() - started  # repro-lint: disable=wall-clock -- kernel span timing

    if out_i[1]:
        # Pathological event density blew the preallocated buffers —
        # redo on the numpy path, which allocates dynamically.
        return _batch._simulate_fluid_batch_numpy(params, x0, y0,
                                                  **numpy_kwargs)

    last = int(out_i[0])
    xs = xs.reshape(n_steps + 1, m)
    ys = ys.reshape(n_steps + 1, m)

    events = []
    for r in range(m):
        base = r * ev_cap
        evs = [
            _batch.FluidEvent(
                time=float(ev_t[base + j]), kind=_KINDS[ev_kind[base + j]],
                x=float(ev_x[base + j]), y=float(ev_y[base + j]))
            for j in range(int(n_events[r]))
        ]
        evs.sort(key=lambda e: e.time)
        events.append(evs)

    if obs is not None and obs.enabled:
        consume_warmup_span(obs)
        obs.add_span("fluid.batch.kernel", kernel_seconds)
        t_used = t_grid[: last + 1]
        for row in range(m):
            live = t_used <= t_end[row]
            _batch.record_fluid_obs(
                obs, "fluid.batch", p, events[row],
                bool(reason[row] == 1), float(t_end[row]),
                xs[: last + 1][live, row], row=row)

    return _batch.BatchFluidResult(
        params=p,
        mode=mode,
        t=t_grid[: last + 1],
        x=xs[: last + 1],
        y=ys[: last + 1],
        events=events,
        converged=reason == 1,
        end_reason=[_batch._REASONS[r] for r in reason],
        switch_counts=switches,
        t_end=t_end,
        x_end=x_end,
        y_end=y_end,
        kernel_seconds=kernel_seconds,
    )
