"""Compiled frame-train window processing for the batched engine.

:class:`CompiledSwitchKernel` subclasses the numpy-vectorized
:class:`repro.simulation.switch.BatchedSwitchKernel` and replaces its
``process()`` hot path with three compiled kernels — window planning
(Lindley hull + drop/PAUSE detection), window commit (sampling, sigma,
BCN emission, service accounting) and the exact per-frame fallback for
drop-tail windows — while keeping every observable side effect
(switch stats, queue counters, sigma history, obs events, RNG stream
position) identical to the numpy kernel.  The batched engine uses it
whenever :func:`~repro.kernels.get_backend` is compiled.
"""

from __future__ import annotations

import math

import numpy as np

from ..simulation.switch import BatchedSwitchKernel, BatchedWindow
from ._backend import KernelBackend, get_backend

__all__ = ["CompiledSwitchKernel"]

_EMPTY = np.empty(0)


class CompiledSwitchKernel(BatchedSwitchKernel):
    """Drop-in :class:`BatchedSwitchKernel` running compiled kernels."""

    def __init__(self, *args, backend: KernelBackend | None = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._backend = backend if backend is not None else get_backend()
        # Per-window output buffers, reused across windows (grow-on-
        # demand).  Reuse keeps allocation out of the hot loop and lets
        # the cffi backend cache its pointer casts; every consumer of
        # these arrays (recorder, obs replay, message delivery) reads
        # them within the same window iteration, before the next
        # ``process()`` call overwrites them.
        self._scratch: dict[str, np.ndarray] = {}
        self._plan_d = np.empty(3)
        self._plan_i = np.empty(3, dtype=np.int64)
        self._out_d = np.empty(2)
        self._out_i = np.empty(9, dtype=np.int64)
        self._sout_d = np.empty(5)
        self._sout_i = np.empty(14, dtype=np.int64)
        # The plan/commit kernels run through bound closures (see
        # ``KernelBackend.bind_packet_plan``) that capture the scratch
        # buffers; ``_bufgen`` bumps whenever ``_buf`` reallocates one,
        # invalidating the closures so they re-bind the new arrays.
        self._bufgen = 0
        self._bound_gen = -1
        self._bound_plan = None
        self._bound_commit = None

    def _buf(self, name: str, n: int, dtype=np.float64) -> np.ndarray:
        buf = self._scratch.get(name)
        if buf is None or buf.shape[0] < n:
            buf = np.empty(max(64, 2 * n), dtype)
            self._scratch[name] = buf
            self._bufgen += 1
        return buf

    # -- feedback-field constants -----------------------------------------

    def _fb_quant(self) -> tuple[float, float]:
        sw = self.switch
        if sw.fb_bits is not None and sw.sigma_unit is not None:
            return float(sw.sigma_unit), float(2 ** (sw.fb_bits - 1))
        return math.nan, 0.0

    # -- window processing -------------------------------------------------

    def process(self, t_start, t_end, times, srcs, assoc):
        be = self._backend
        sw = self.switch
        Lf = float(self.frame_bits)
        m = int(times.size)
        n_res = self._backlog
        total = n_res + m

        times = np.ascontiguousarray(times, dtype=np.float64)
        srcs64 = np.ascontiguousarray(srcs, dtype=np.int64)
        assoc8 = np.ascontiguousarray(assoc, dtype=np.uint8)

        # All scratch sized by the pre-truncation counts (``total`` and
        # ``m`` bound ``total_eff`` and ``m_eff``) so a single bind
        # covers plan and commit; the kernels never read output shapes.
        starts = self._buf("starts", total)
        completions = self._buf("completions", total)
        q_bits = self._buf("q_bits", m)
        msg_t = self._buf("msg_t", m)
        msg_src = self._buf("msg_src", m, np.int64)
        msg_sigma = self._buf("msg_sigma", m)
        msg_qoff = self._buf("msg_qoff", m)
        msg_dq = self._buf("msg_dq", m)
        msg_fb = self._buf("msg_fb", m)
        samp_t = self._buf("samp_t", m)
        samp_sigma = self._buf("samp_sigma", m)
        plan_d = self._plan_d
        plan_i = self._plan_i
        q_sc = float(sw.q_sc) if sw.q_sc is not None else math.nan

        if self._bound_gen != self._bufgen:
            sigma_unit, full_scale = self._fb_quant()
            self._bound_plan = be.bind_packet_plan(
                Lf, sw.queue.capacity_bits, q_sc,
                self.pause_commit_horizon, starts, completions, q_bits,
                plan_d, plan_i)
            self._bound_commit = be.bind_packet_commit(
                sw.pm, sw.q0, sw.w,
                1 if sw.positive_only_below_q0 else 0,
                1 if sw.require_association else 0,
                sigma_unit, full_scale, q_bits, starts, completions,
                msg_t, msg_src, msg_sigma, msg_qoff, msg_dq, msg_fb,
                samp_t, samp_sigma, self._out_d, self._out_i)
            self._bound_gen = self._bufgen

        self._bound_plan(
            times, float(t_start), float(t_end), self._ssvc, n_res,
            self._next_free, 1 if self._inflight else 0,
            self._frozen_until, self._pause_rearm_at,
        )
        if plan_i[0]:
            # drop-tail engages inside the window: exact per-frame kernel
            return self._process_scalar_compiled(
                be, t_start, t_end, times, srcs64, assoc8)

        m_eff = int(plan_i[1])
        total_eff = int(plan_i[2])
        pause_at = float(plan_d[0])
        t_commit = float(plan_d[1])
        has_pause = pause_at == pause_at  # not NaN

        if has_pause:
            self._pause_rearm_at = pause_at + sw.pause_duration
            sw.stats.pauses_sent += self.pause_fanout
            if sw.obs is not None:
                sw.obs.event("pause_on", pause_at, engine=sw.obs_engine,
                             node=sw.cpid, value=sw.pause_duration)
                sw.obs.event("pause_off", pause_at + sw.pause_duration,
                             engine=sw.obs_engine, node=sw.cpid)

        # Bernoulli draws happen after truncation, exactly as the batched
        # engine draws ``rng.random(m)`` on the truncated window.
        if self._rng is not None and m_eff:
            uniforms = self._rng.random(m_eff)
            use_rng, interval, since = 1, 1, 0
        else:
            uniforms = _EMPTY
            use_rng = 1 if self._rng is not None else 0
            interval = sw._sample_interval
            since = sw._arrivals_since_sample

        out_d = self._out_d
        out_i = self._out_i

        self._bound_commit(
            m_eff, n_res, times, srcs64, assoc8, float(t_start), t_commit,
            1 if self._inflight else 0, self._next_free, uniforms,
            use_rng, interval, since, sw._q_at_last_sample,
        )

        n_msg = int(out_i[0])
        n_samp = int(out_i[1])
        delivered = int(out_i[4])

        if use_rng == 0 and m_eff:
            sw._arrivals_since_sample = int(out_i[8])
        if n_samp:
            sw._q_at_last_sample = float(out_d[1])
            sw.stats.samples += n_samp
            sw.sigma_history.extend(
                zip(samp_t[:n_samp].tolist(), samp_sigma[:n_samp].tolist()))
            sw.stats.bcn_negative += int(out_i[2])
            sw.stats.bcn_positive += int(out_i[3])

        if sw.obs is not None and n_msg:
            for mt, msrc, msig in zip(msg_t[:n_msg].tolist(),
                                      msg_src[:n_msg].tolist(),
                                      msg_sigma[:n_msg].tolist()):
                sw.obs.event("bcn", mt, engine=sw.obs_engine, node=sw.cpid,
                             flow=int(msrc), value=msig)

        n_started = int(out_i[5])
        self._next_free = float(out_d[0])
        self._inflight = bool(out_i[7])
        self._backlog = int(out_i[6])

        delivered_bits = float(delivered) * Lf
        sw.stats.forwarded_frames += delivered
        sw.stats.forwarded_bits += delivered_bits
        q = sw.queue
        q.enqueued_frames += m_eff
        q.enqueued_bits += float(m_eff) * Lf
        q.dequeued_frames += n_started
        q.dequeued_bits += float(n_started) * Lf

        arrivals = self._buf("arrivals", total_eff)[:total_eff]
        arrivals[:n_res] = t_start
        arrivals[n_res:] = times[:m_eff]
        self._win_arrivals = arrivals
        self._win_starts = starts[:total_eff]

        if n_msg:
            w_msg = (msg_t[:n_msg], msg_src[:n_msg], msg_fb[:n_msg],
                     msg_sigma[:n_msg], msg_qoff[:n_msg], msg_dq[:n_msg])
        else:
            w_msg = (_EMPTY,) * 6

        return BatchedWindow(
            t_start=t_start, t_commit=t_commit, committed=m_eff,
            msg_t=w_msg[0], msg_src=w_msg[1], msg_fb=w_msg[2],
            msg_sigma=w_msg[3], msg_q_off=w_msg[4], msg_dq=w_msg[5],
            pause_at=pause_at if has_pause else None,
            delivered_bits=delivered_bits, drops=0,
        )

    # -- exact per-frame fallback (drop-tail windows) ----------------------

    def _process_scalar_compiled(self, be, t_start, t_end, times, srcs64,
                                 assoc8):
        sw = self.switch
        Lf = float(self.frame_bits)
        m = int(times.size)
        backlog0 = self._backlog
        cap = backlog0 + m

        rng = self._rng
        if rng is not None:
            # The reference loop draws one scalar per processed arrival;
            # pre-draw the worst case, then rewind and consume exactly
            # ``committed`` draws so the stream position matches.
            state = rng.bit_generator.state
            uniforms = rng.random(m)
            use_rng, interval, since = 1, 1, 0
        else:
            uniforms = _EMPTY
            use_rng = 0
            interval = sw._sample_interval
            since = sw._arrivals_since_sample

        msg_t = self._buf("msg_t", m)
        msg_src = self._buf("msg_src", m, np.int64)
        msg_sigma = self._buf("msg_sigma", m)
        msg_qoff = self._buf("msg_qoff", m)
        msg_dq = self._buf("msg_dq", m)
        msg_fb = self._buf("msg_fb", m)
        samp_t = self._buf("samp_t", m)
        samp_sigma = self._buf("samp_sigma", m)
        drop_t = self._buf("drop_t", m)
        drop_src = self._buf("drop_src", m, np.int64)
        acc_arrivals = self._buf("acc_arrivals", cap)
        starts_out = self._buf("starts_out", cap)
        pause_ts = self._buf("pause_ts", m)
        out_d = self._sout_d
        out_i = self._sout_i
        q_sc = float(sw.q_sc) if sw.q_sc is not None else math.nan
        sigma_unit, full_scale = self._fb_quant()

        be.packet_scalar(
            times, srcs64, assoc8, uniforms, use_rng, float(sw.pm), interval,
            since, float(t_start), float(t_end), self._ssvc, Lf,
            float(sw.queue.capacity_bits), q_sc, float(sw.q0), float(sw.w),
            1 if sw.positive_only_below_q0 else 0,
            1 if sw.require_association else 0, sigma_unit, full_scale,
            backlog0, self._next_free, 1 if self._inflight else 0,
            self._frozen_until, self._pause_rearm_at,
            float(sw.pause_duration), self.pause_commit_horizon,
            sw._q_at_last_sample,
            msg_t, msg_src, msg_sigma, msg_qoff, msg_dq, msg_fb,
            samp_t, samp_sigma, drop_t, drop_src, acc_arrivals, starts_out,
            pause_ts, out_d, out_i,
        )

        committed = int(out_i[0])
        n_msg = int(out_i[1])
        n_samp = int(out_i[2])
        n_drop = int(out_i[3])
        delivered = int(out_i[4])
        n_starts = int(out_i[8])
        n_acc = int(out_i[9])
        n_pause = int(out_i[13])
        t_commit = float(out_d[1])

        if rng is not None:
            rng.bit_generator.state = state
            if committed:
                rng.random(committed)
        else:
            sw._arrivals_since_sample = int(out_i[7])
        sw._q_at_last_sample = float(out_d[3])
        self._pause_rearm_at = float(out_d[4])

        sw.stats.samples += n_samp
        if n_samp:
            sw.sigma_history.extend(
                zip(samp_t[:n_samp].tolist(), samp_sigma[:n_samp].tolist()))
        sw.stats.bcn_negative += int(out_i[10])
        sw.stats.bcn_positive += int(out_i[11])
        sw.stats.pauses_sent += n_pause * self.pause_fanout

        q = sw.queue
        accepted_new = n_acc - backlog0
        q.enqueued_frames += accepted_new
        q.enqueued_bits += float(accepted_new) * Lf
        q.dropped_frames += n_drop
        q.dropped_bits += float(n_drop) * Lf
        q.dequeued_frames += n_starts
        q.dequeued_bits += float(n_starts) * Lf

        delivered_bits = float(delivered) * Lf
        sw.stats.forwarded_frames += delivered
        sw.stats.forwarded_bits += delivered_bits

        self._next_free = float(out_d[2])
        self._inflight = bool(out_i[6])
        self._backlog = int(out_i[5])
        self._win_arrivals = acc_arrivals[:n_acc]
        self._win_starts = starts_out[:n_starts]

        if sw.obs is not None:
            self._replay_scalar_obs(
                sw, Lf, drop_t[:n_drop], drop_src[:n_drop],
                msg_t[:n_msg], msg_src[:n_msg], msg_sigma[:n_msg],
                pause_ts[:n_pause])

        if n_msg:
            w_msg = (msg_t[:n_msg], msg_src[:n_msg], msg_fb[:n_msg],
                     msg_sigma[:n_msg], msg_qoff[:n_msg], msg_dq[:n_msg])
        else:
            w_msg = (_EMPTY,) * 6

        pause_at = float(out_d[0])
        return BatchedWindow(
            t_start=t_start, t_commit=t_commit, committed=committed,
            msg_t=w_msg[0], msg_src=w_msg[1], msg_fb=w_msg[2],
            msg_sigma=w_msg[3], msg_q_off=w_msg[4], msg_dq=w_msg[5],
            pause_at=pause_at if pause_at == pause_at else None,
            delivered_bits=delivered_bits, drops=n_drop,
        )

    @staticmethod
    def _replay_scalar_obs(sw, Lf, drop_t, drop_src, msg_t, msg_src,
                           msg_sigma, pause_ts):
        """Re-emit the per-frame loop's obs events in time order.

        The reference loop interleaves drop / bcn / pause events as it
        walks arrivals; replaying sorted by (time, kind) reproduces that
        order (within one arrival the loop emits drop, then bcn, then
        pause; simultaneous arrivals from different sources are rare
        enough that the conformance suites compare event multisets).
        """
        events = []
        for t, src in zip(drop_t.tolist(), drop_src.tolist()):
            events.append((t, 0, src, 0.0))
        for t, src, sig in zip(msg_t.tolist(), msg_src.tolist(),
                               msg_sigma.tolist()):
            events.append((t, 1, src, sig))
        for t in pause_ts.tolist():
            events.append((t, 2, -1, 0.0))
        events.sort(key=lambda e: (e[0], e[1]))
        for t, kind, src, val in events:
            if kind == 0:
                sw.obs.event("drop", t, engine=sw.obs_engine, node=sw.cpid,
                             flow=int(src), value=Lf)
            elif kind == 1:
                sw.obs.event("bcn", t, engine=sw.obs_engine, node=sw.cpid,
                             flow=int(src), value=val)
            else:
                sw.obs.event("pause_on", t, engine=sw.obs_engine,
                             node=sw.cpid, value=sw.pause_duration)
                sw.obs.event("pause_off", t + sw.pause_duration,
                             engine=sw.obs_engine, node=sw.cpid)
