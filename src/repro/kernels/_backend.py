"""Backend selection for the compiled kernels.

Two tiers, tried in order (override with ``REPRO_KERNEL_BACKEND`` set
to ``auto`` / ``cffi`` / ``numpy``):

``cffi``
    The out-of-line C extension from :mod:`repro.kernels._cbuild` — a
    line-for-line C translation of the scalar reference bodies in
    :mod:`repro.kernels._scalar`, compiled once into a
    content-addressed cache directory.  Needs a C compiler and cffi
    (the ``[compiled]`` extra).
``numpy``
    No compiled code at all.  The engines detect ``backend.compiled is
    False`` and run their numpy-vectorized implementations, which give
    bit-identical results.  The entry points on this tier are the
    pure-python ``_scalar`` bodies, which only the differential tests
    call.

The one-time C build cost is accumulated in ``warmup_seconds`` and
surfaced to the observability layer by :func:`consume_warmup_span`, so
``repro profile`` separates first-call compilation from steady-state
kernel time.
"""

from __future__ import annotations

import os

from . import _scalar

__all__ = [
    "KernelBackend",
    "consume_warmup_span",
    "get_backend",
    "reset_backend",
]

#: obs span name under which warm-up/compile time is recorded.
WARMUP_SPAN = "kernels.jit_warmup"


class KernelBackend:
    """Uniform facade over one backend tier.

    Exposes the kernel entry points with the exact python signatures of
    :mod:`repro.kernels._scalar`; ``compiled`` tells callers whether the
    calls actually run native code (when False, engines should prefer
    their existing vectorized paths instead).
    """

    name = "numpy"
    compiled = False
    #: One-time compile/warm-up cost paid constructing this backend.
    warmup_seconds = 0.0

    # Pure-python fallbacks: semantically exact but interpreted — only
    # used directly by the differential tests, never by the engines.
    merge_trains = staticmethod(_scalar.merge_trains)
    pacing_plan = staticmethod(_scalar.pacing_plan)
    pacing_commit = staticmethod(_scalar.pacing_commit)
    owed_repay = staticmethod(_scalar.owed_repay)
    packet_plan = staticmethod(_scalar.packet_plan)
    packet_commit = staticmethod(_scalar.packet_commit)
    packet_scalar = staticmethod(_scalar.packet_scalar)
    apply_messages = staticmethod(_scalar.apply_messages)
    fluid_rows = staticmethod(_scalar.fluid_rows)

    # -- bound fast-call closures -----------------------------------------
    #
    # The packet loop calls the same kernels every window on the same
    # preallocated arrays.  ``bind_*`` returns a closure with the
    # persistent arrays (and per-run constants) already captured, so the
    # per-window call passes only what actually changes.  The base
    # implementations simply close over the generic entry points; the
    # cffi tier overrides them to also precompute the pointer casts.
    # Callers must re-bind after replacing any captured array object.

    def bind_pacing_plan(self, next_emit, paused, active, remaining, gaps,
                         first, counts):
        fn = self.pacing_plan

        def call(until):
            return fn(next_emit, paused, active, remaining, gaps, until,
                      first, counts)

        return call

    def bind_pacing_commit(self, srcs, first, gaps, counts, any_finite,
                           next_emit, remaining, active, frames_acc,
                           comm, fin_idx, fin_t):
        fn = self.pacing_commit

        def call(m_committed):
            return fn(srcs, m_committed, first, gaps, counts, any_finite,
                      next_emit, remaining, active, frames_acc, comm,
                      fin_idx, fin_t)

        return call

    def bind_merge_trains(self, first, gaps, counts, assoc,
                          out_t, out_src, out_assoc):
        fn = self.merge_trains

        def call(d):
            return fn(first, gaps, counts, assoc, d, out_t, out_src,
                      out_assoc)

        return call

    def bind_owed_repay(self, owed, next_emit, rates):
        fn = self.owed_repay

        def call(until, nxt):
            return fn(owed, next_emit, rates, until, nxt)

        return call

    def bind_apply_messages(self, mode, gi, gd, ru, max_dt, d, rate,
                            last_update, assoc8, updates, min_rate,
                            line_rate, owed, out_d):
        fn = self.apply_messages

        def call(msg_t, msg_src, msg_fb, msg_sigma, t_commit):
            return fn(msg_t, msg_src, msg_fb, msg_sigma, mode, gi, gd,
                      ru, max_dt, d, t_commit, rate, last_update, assoc8,
                      updates, min_rate, line_rate, owed, out_d)

        return call

    def bind_packet_plan(self, L, B, q_sc, pause_horizon, starts,
                         completions, q_bits, out_d, out_i):
        fn = self.packet_plan

        def call(times, t_start, t_end, ssvc, n_res, next_free, inflight,
                 frozen_until, pause_rearm_at):
            return fn(times, t_start, t_end, ssvc, L, B, q_sc, n_res,
                      next_free, inflight, frozen_until, pause_rearm_at,
                      pause_horizon, starts, completions, q_bits,
                      out_d, out_i)

        return call

    def bind_packet_commit(self, pm, q0, w, pos_only, req_assoc,
                           sigma_unit, full_scale, q_bits, starts,
                           completions, msg_t, msg_src, msg_sigma,
                           msg_qoff, msg_dq, msg_fb, samp_t, samp_sigma,
                           out_d, out_i):
        fn = self.packet_commit

        def call(m_eff, n_res, times, srcs, assoc, t_start, t_commit,
                 prev_inflight, prev_next_free, uniforms, use_rng,
                 interval, since, q_prev):
            return fn(m_eff, n_res, times, srcs, assoc, q_bits, starts,
                      completions, t_start, t_commit, prev_inflight,
                      prev_next_free, uniforms, use_rng, pm, interval,
                      since, q_prev, q0, w, pos_only, req_assoc,
                      sigma_unit, full_scale, msg_t, msg_src, msg_sigma,
                      msg_qoff, msg_dq, msg_fb, samp_t, samp_sigma,
                      out_d, out_i)

        return call

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KernelBackend {self.name} compiled={self.compiled}>"


def _ptr(ffi, arr, ctype):
    return ffi.cast(ctype, ffi.from_buffer(arr))


class _CffiKernels(KernelBackend):
    """Wrappers over the cffi-compiled C translation."""

    name = "cffi"
    compiled = True

    #: Entries kept in the pointer cache before it is flushed wholesale.
    _PCACHE_LIMIT = 1024

    def __init__(self) -> None:
        from . import _cbuild

        lib, ffi = _cbuild.load_cffi_kernels()
        self._lib = lib
        self._ffi = ffi
        # ``ffi.from_buffer`` + ``ffi.cast`` cost ~0.5 µs per argument,
        # which dominates the per-window overhead once the kernels are
        # fast.  The engines pass the same preallocated scratch buffers
        # on every call, so cache the cast per (id, ctype).  Each entry
        # keeps a strong reference to its array, which both guarantees
        # the id cannot be recycled while the entry lives and keeps the
        # cached pointer valid; the cache is flushed when transient
        # arrays (slices, RNG draws) grow it past ``_PCACHE_LIMIT``.
        self._pcache: dict = {}
        self.warmup_seconds = _cbuild.build_seconds

    # -- pointer helpers --------------------------------------------------

    def _ptr(self, arr, ctype):
        key = (id(arr), ctype)
        ent = self._pcache.get(key)
        if ent is not None:
            return ent[1]
        p = self._ffi.cast(ctype, self._ffi.from_buffer(arr))
        if len(self._pcache) >= self._PCACHE_LIMIT:
            self._pcache.clear()
        self._pcache[key] = (arr, p)
        return p

    def _d(self, arr):
        return self._ptr(arr, "double *")

    def _i(self, arr):
        return self._ptr(arr, "int64_t *")

    def _u8(self, arr):
        return self._ptr(arr, "uint8_t *")

    def _i8(self, arr):
        return self._ptr(arr, "int8_t *")

    # -- kernels ----------------------------------------------------------

    def merge_trains(self, first, gaps, counts, assoc, d, out_t, out_src,
                     out_assoc):
        return int(self._lib.k_merge_trains(
            first.shape[0], self._d(first), self._d(gaps), self._i(counts),
            self._u8(assoc), float(d), self._d(out_t), self._i(out_src),
            self._u8(out_assoc),
        ))

    def pacing_plan(self, next_emit, paused, active, remaining, gaps,
                    until, first, counts):
        return int(self._lib.k_pacing_plan(
            next_emit.shape[0], self._d(next_emit), self._d(paused),
            self._u8(active), self._d(remaining), self._d(gaps),
            float(until), self._d(first), self._i(counts),
        ))

    def pacing_commit(self, srcs, m_committed, first, gaps, counts,
                      any_finite, next_emit, remaining, active, frames_acc,
                      comm, fin_idx, fin_t):
        return int(self._lib.k_pacing_commit(
            next_emit.shape[0], int(m_committed), self._i(srcs),
            self._d(first), self._d(gaps), self._i(counts),
            int(any_finite), self._d(next_emit), self._d(remaining),
            self._u8(active), self._i(frames_acc), self._i(comm),
            self._i(fin_idx), self._d(fin_t),
        ))

    def owed_repay(self, owed, next_emit, rates, until, nxt):
        self._lib.k_owed_repay(
            owed.shape[0], self._d(owed), self._d(next_emit),
            self._d(rates), float(until), float(nxt),
        )

    def packet_plan(self, times, t_start, t_end, ssvc, L, B, q_sc, n_res,
                    next_free, inflight, frozen_until, pause_rearm_at,
                    pause_horizon, starts, completions, q_bits, out_d, out_i):
        self._lib.k_packet_plan(
            times.shape[0], self._d(times), float(t_start), float(t_end),
            float(ssvc), float(L), float(B), float(q_sc), int(n_res),
            float(next_free), int(inflight), float(frozen_until),
            float(pause_rearm_at), float(pause_horizon), self._d(starts),
            self._d(completions), self._d(q_bits), self._d(out_d),
            self._i(out_i),
        )

    def packet_commit(self, m_eff, n_res, times, srcs, assoc, q_bits, starts,
                      completions, t_start, t_commit, prev_inflight,
                      prev_next_free, uniforms, use_rng, pm, interval, since,
                      q_prev, q0, w, pos_only, req_assoc, sigma_unit,
                      full_scale, msg_t, msg_src, msg_sigma, msg_qoff, msg_dq,
                      msg_fb, samp_t, samp_sigma, out_d, out_i):
        self._lib.k_packet_commit(
            int(m_eff), int(n_res), self._d(times), self._i(srcs),
            self._u8(assoc), self._d(q_bits), self._d(starts),
            self._d(completions), float(t_start), float(t_commit),
            int(prev_inflight), float(prev_next_free), self._d(uniforms),
            int(use_rng), float(pm), int(interval), int(since),
            float(q_prev), float(q0), float(w), int(pos_only),
            int(req_assoc), float(sigma_unit), float(full_scale),
            self._d(msg_t), self._i(msg_src), self._d(msg_sigma),
            self._d(msg_qoff), self._d(msg_dq), self._d(msg_fb),
            self._d(samp_t), self._d(samp_sigma), self._d(out_d),
            self._i(out_i),
        )

    def packet_scalar(self, times, srcs, assoc, uniforms, use_rng, pm,
                      interval, since, t_start, t_end, ssvc, L, B, q_sc, q0,
                      w, pos_only, req_assoc, sigma_unit, full_scale, backlog,
                      next_free0, inflight, frozen_until, pause_rearm_at,
                      pause_duration, pause_horizon, q_prev, msg_t, msg_src,
                      msg_sigma, msg_qoff, msg_dq, msg_fb, samp_t, samp_sigma,
                      drop_t, drop_src, acc_arrivals, starts_out, pause_ts,
                      out_d, out_i):
        self._lib.k_packet_scalar(
            times.shape[0], self._d(times), self._i(srcs), self._u8(assoc),
            self._d(uniforms), int(use_rng), float(pm), int(interval),
            int(since), float(t_start), float(t_end), float(ssvc), float(L),
            float(B), float(q_sc), float(q0), float(w), int(pos_only),
            int(req_assoc), float(sigma_unit), float(full_scale),
            int(backlog), float(next_free0), int(inflight),
            float(frozen_until), float(pause_rearm_at), float(pause_duration),
            float(pause_horizon), float(q_prev), self._d(msg_t),
            self._i(msg_src), self._d(msg_sigma), self._d(msg_qoff),
            self._d(msg_dq), self._d(msg_fb), self._d(samp_t),
            self._d(samp_sigma), self._d(drop_t), self._i(drop_src),
            self._d(acc_arrivals), self._d(starts_out), self._d(pause_ts),
            self._d(out_d), self._i(out_i),
        )

    def apply_messages(self, msg_t, msg_src, msg_fb, msg_sigma, mode, gi, gd,
                       ru, max_dt, d, t_commit, rate, last_update, assoc8,
                       updates, min_rate, line_rate, owed, out_d):
        self._lib.k_apply_messages(
            msg_t.shape[0], self._d(msg_t), self._i(msg_src),
            self._d(msg_fb), self._d(msg_sigma), int(mode), float(gi),
            float(gd), float(ru), float(max_dt), float(d), float(t_commit),
            self._d(rate), self._d(last_update), self._u8(assoc8),
            self._i(updates), self._d(min_rate), self._d(line_rate),
            self._d(owed), self._d(out_d),
        )

    def fluid_rows(self, x0, y0, t_grid, a, b, cap, k, q0, x_full, x_empty,
                   linear_dec, physical, max_switches, conv_rtol, t_max,
                   xs, ys, reason, switches, t_end, x_end, y_end,
                   ev_cap, n_events, ev_t, ev_kind, ev_x, ev_y, out_i):
        self._lib.k_fluid(
            x0.shape[0], t_grid.shape[0] - 1, self._d(t_grid), self._d(x0),
            self._d(y0), float(a), float(b), float(cap), float(k), float(q0),
            float(x_full), float(x_empty), int(linear_dec), int(physical),
            int(max_switches), float(conv_rtol), float(t_max), self._d(xs),
            self._d(ys), self._i8(reason), self._i(switches), self._d(t_end),
            self._d(x_end), self._d(y_end), int(ev_cap), self._i(n_events),
            self._d(ev_t), self._i8(ev_kind), self._d(ev_x), self._d(ev_y),
            self._i(out_i),
        )

    # -- bound fast-call closures (pointer casts hoisted out of the loop) --
    #
    # Each closure keeps a reference to the arrays it captured (``keep``)
    # so the cached pointers can never outlive their buffers, even if
    # the pointer cache is flushed.

    def bind_pacing_plan(self, next_emit, paused, active, remaining, gaps,
                         first, counts):
        lib = self._lib
        n = next_emit.shape[0]
        keep = (next_emit, paused, active, remaining, gaps, first, counts)
        p_ne, p_pa = self._d(next_emit), self._d(paused)
        p_ac, p_re = self._u8(active), self._d(remaining)
        p_ga, p_fi, p_co = self._d(gaps), self._d(first), self._i(counts)

        def call(until, _keep=keep):
            return lib.k_pacing_plan(n, p_ne, p_pa, p_ac, p_re, p_ga,
                                     until, p_fi, p_co)

        return call

    def bind_pacing_commit(self, srcs, first, gaps, counts, any_finite,
                           next_emit, remaining, active, frames_acc,
                           comm, fin_idx, fin_t):
        lib = self._lib
        n = next_emit.shape[0]
        keep = (srcs, first, gaps, counts, next_emit, remaining, active,
                frames_acc, comm, fin_idx, fin_t)
        p_sr = self._i(srcs)
        p_fi, p_ga, p_co = self._d(first), self._d(gaps), self._i(counts)
        p_ne, p_re = self._d(next_emit), self._d(remaining)
        p_ac, p_fr = self._u8(active), self._i(frames_acc)
        p_cm, p_fx, p_ft = self._i(comm), self._i(fin_idx), self._d(fin_t)
        af = int(any_finite)

        def call(m_committed, _keep=keep):
            return lib.k_pacing_commit(n, m_committed, p_sr, p_fi, p_ga,
                                       p_co, af, p_ne, p_re, p_ac, p_fr,
                                       p_cm, p_fx, p_ft)

        return call

    def bind_merge_trains(self, first, gaps, counts, assoc,
                          out_t, out_src, out_assoc):
        lib = self._lib
        n = first.shape[0]
        keep = (first, gaps, counts, assoc, out_t, out_src, out_assoc)
        p_fi, p_ga, p_co = self._d(first), self._d(gaps), self._i(counts)
        p_as = self._u8(assoc)
        p_ot, p_os, p_oa = (self._d(out_t), self._i(out_src),
                            self._u8(out_assoc))

        def call(d, _keep=keep):
            return lib.k_merge_trains(n, p_fi, p_ga, p_co, p_as, d,
                                      p_ot, p_os, p_oa)

        return call

    def bind_owed_repay(self, owed, next_emit, rates):
        lib = self._lib
        n = owed.shape[0]
        keep = (owed, next_emit, rates)
        p_ow, p_ne, p_ra = (self._d(owed), self._d(next_emit),
                            self._d(rates))

        def call(until, nxt, _keep=keep):
            lib.k_owed_repay(n, p_ow, p_ne, p_ra, until, nxt)

        return call

    def bind_apply_messages(self, mode, gi, gd, ru, max_dt, d, rate,
                            last_update, assoc8, updates, min_rate,
                            line_rate, owed, out_d):
        lib = self._lib
        _d = self._d
        _i = self._i
        keep = (rate, last_update, assoc8, updates, min_rate, line_rate,
                owed, out_d)
        p_ra, p_lu = _d(rate), _d(last_update)
        p_as, p_up = self._u8(assoc8), _i(updates)
        p_mi, p_li = _d(min_rate), _d(line_rate)
        p_ow, p_od = _d(owed), _d(out_d)
        mode_i, max_dt_f = int(mode), float(max_dt)
        gi_f, gd_f, ru_f, d_f = float(gi), float(gd), float(ru), float(d)

        def call(msg_t, msg_src, msg_fb, msg_sigma, t_commit, _keep=keep):
            lib.k_apply_messages(
                msg_t.shape[0], _d(msg_t), _i(msg_src), _d(msg_fb),
                _d(msg_sigma), mode_i, gi_f, gd_f, ru_f, max_dt_f, d_f,
                t_commit, p_ra, p_lu, p_as, p_up, p_mi, p_li, p_ow, p_od,
            )

        return call

    def bind_packet_plan(self, L, B, q_sc, pause_horizon, starts,
                         completions, q_bits, out_d, out_i):
        lib = self._lib
        _d = self._d
        keep = (starts, completions, q_bits, out_d, out_i)
        p_st, p_cp, p_qb = _d(starts), _d(completions), _d(q_bits)
        p_od, p_oi = _d(out_d), self._i(out_i)
        L_f, B_f = float(L), float(B)
        q_sc_f, hor_f = float(q_sc), float(pause_horizon)

        def call(times, t_start, t_end, ssvc, n_res, next_free, inflight,
                 frozen_until, pause_rearm_at, _keep=keep):
            lib.k_packet_plan(
                times.shape[0], _d(times), t_start, t_end, ssvc, L_f,
                B_f, q_sc_f, n_res, next_free, inflight, frozen_until,
                pause_rearm_at, hor_f, p_st, p_cp, p_qb, p_od, p_oi,
            )

        return call

    def bind_packet_commit(self, pm, q0, w, pos_only, req_assoc,
                           sigma_unit, full_scale, q_bits, starts,
                           completions, msg_t, msg_src, msg_sigma,
                           msg_qoff, msg_dq, msg_fb, samp_t, samp_sigma,
                           out_d, out_i):
        lib = self._lib
        _d = self._d
        _i = self._i
        _u8 = self._u8
        keep = (q_bits, starts, completions, msg_t, msg_src, msg_sigma,
                msg_qoff, msg_dq, msg_fb, samp_t, samp_sigma, out_d, out_i)
        p_qb, p_st, p_cp = _d(q_bits), _d(starts), _d(completions)
        p_mt, p_ms, p_mg = _d(msg_t), _i(msg_src), _d(msg_sigma)
        p_mq, p_md, p_mf = _d(msg_qoff), _d(msg_dq), _d(msg_fb)
        p_st2, p_ss = _d(samp_t), _d(samp_sigma)
        p_od, p_oi = _d(out_d), _i(out_i)
        pm_f, q0_f, w_f = float(pm), float(q0), float(w)
        po_i, ra_i = int(pos_only), int(req_assoc)
        su_f, fs_f = float(sigma_unit), float(full_scale)

        def call(m_eff, n_res, times, srcs, assoc, t_start, t_commit,
                 prev_inflight, prev_next_free, uniforms, use_rng,
                 interval, since, q_prev, _keep=keep):
            lib.k_packet_commit(
                m_eff, n_res, _d(times), _i(srcs), _u8(assoc), p_qb,
                p_st, p_cp, t_start, t_commit, prev_inflight,
                prev_next_free, _d(uniforms), use_rng, pm_f, interval,
                since, q_prev, q0_f, w_f, po_i, ra_i, su_f, fs_f,
                p_mt, p_ms, p_mg, p_mq, p_md, p_mf, p_st2, p_ss,
                p_od, p_oi,
            )

        return call


_BACKEND: KernelBackend | None = None
_WARMUP_REPORTED = False


def _select(choice: str) -> KernelBackend:
    try:
        return _CffiKernels()
    except Exception:
        if choice == "cffi":
            raise
    return KernelBackend()


def get_backend() -> KernelBackend:
    """Return the process-wide kernel backend (built on first use)."""
    global _BACKEND
    if _BACKEND is None:
        choice = os.environ.get("REPRO_KERNEL_BACKEND", "auto").lower()
        if choice not in ("auto", "cffi", "numpy"):
            raise ValueError(
                f"REPRO_KERNEL_BACKEND={choice!r}: expected auto, cffi, "
                "or numpy"
            )
        _BACKEND = KernelBackend() if choice == "numpy" else _select(choice)
    return _BACKEND


def reset_backend() -> None:
    """Drop the cached backend (tests switch tiers via the env var)."""
    global _BACKEND, _WARMUP_REPORTED
    _BACKEND = None
    _WARMUP_REPORTED = False


def consume_warmup_span(obs) -> None:
    """Record the one-time kernel build cost as a ``repro.obs`` span.

    Called by the engines right after their first kernel use; the span
    is emitted once per process so ``repro profile`` attributes warm-up
    separately from steady-state kernel time.
    """
    global _WARMUP_REPORTED
    if obs is None or not getattr(obs, "enabled", False) or _WARMUP_REPORTED:
        return
    backend = get_backend()
    if backend.warmup_seconds > 0.0:
        obs.add_span(f"{WARMUP_SPAN}.{backend.name}",
                     backend.warmup_seconds)
    _WARMUP_REPORTED = True
