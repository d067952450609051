"""Single-bottleneck (dumbbell) BCN network simulator.

Wires the paper's reference scenario (Fig. 1): ``N`` homogeneous sources
behind edge rate regulators, one core switch with a BCN congestion
point, and a sink — all over links with configurable propagation delay.
:class:`BCNNetworkSimulator` builds the network from a
:class:`~repro.core.parameters.BCNParams`, runs it, and returns a
:class:`SimulationResult` with the queue trajectory, per-source rates,
drop/PAUSE/BCN counters and derived metrics (utilisation, Jain fairness,
peak queue), ready to be compared against the fluid model.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from ..core.parameters import BCNParams
from .engine import Simulator
from .frames import BCNMessage, EthernetFrame, PauseFrame
from .link import Link
from .source import RateRegulator, TrafficSource, expected_message_interval
from .switch import BatchedSwitchKernel, CoreSwitch

__all__ = ["SimulationResult", "BCNNetworkSimulator", "PACKET_ENGINES",
           "resolve_engine"]

#: Selectable packet engines: the event-driven oracle and the frame-train
#: batched fast path (on :mod:`repro.kernels`' compiled tier when one is
#: available, on numpy ops otherwise).
PACKET_ENGINES = ("reference", "batched")

#: Former engine names still accepted, and the engine each now names.
_ENGINE_SYNONYMS = {"compiled": "batched"}


def resolve_engine(engine: str) -> str:
    """The registered packet engine that ``engine`` names.

    Accepts a :data:`PACKET_ENGINES` name or a former name kept as a
    synonym (``"compiled"`` is the batched engine, which runs the
    compiled kernels by itself whenever the platform has them).
    """
    resolved = _ENGINE_SYNONYMS.get(engine, engine)
    if resolved not in PACKET_ENGINES:
        raise ValueError(
            f"unknown packet engine {engine!r}; pick from {PACKET_ENGINES}"
        )
    return resolved


class _SeriesBuffer:
    """An appendable ``(t, value)`` series backed by growable arrays.

    The recorder used to collect Python lists of tuples and convert
    them element-by-element at the end of a run; this keeps the samples
    in preallocated float arrays (doubling on overflow) and hands back
    views with a single slice.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._t = np.empty(max(capacity, 16))
        self._v = np.empty(max(capacity, 16))
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _grow(self, need: int) -> None:
        capacity = self._t.size
        while capacity < need:
            capacity *= 2
        t = np.empty(capacity)
        v = np.empty(capacity)
        t[: self._n] = self._t[: self._n]
        v[: self._n] = self._v[: self._n]
        self._t, self._v = t, v

    def append(self, t: float, value: float) -> None:
        if self._n == self._t.size:
            self._grow(self._n + 1)
        self._t[self._n] = t
        self._v[self._n] = value
        self._n += 1

    def extend(self, t: np.ndarray, values: np.ndarray) -> None:
        n = self._n + t.size
        if n > self._t.size:
            self._grow(n)
        self._t[self._n : n] = t
        self._v[self._n : n] = values
        self._n = n

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._t[: self._n].copy(), self._v[: self._n].copy()


class _Pacing:
    """Per-source pacing state plus the batched engine's numpy window ops.

    The window loop calls ``plan`` → ``merge`` → (switch ``process``) →
    ``commit`` → ``repay`` once per window.  Every op updates the state
    arrays in place, never rebinding them, so the loop and the bound
    compiled kernels of :class:`_CompiledPacing` share one copy.
    """

    def __init__(self, sources: list[TrafficSource], L: float,
                 cpid: str) -> None:
        n = len(sources)
        self.rates = np.array([s.regulator.rate for s in sources])
        self.gaps = L / self.rates
        # First emission one gap after each flow's start time.
        self.next_emit = np.array([s.start_time for s in sources]) + self.gaps
        self.paused = np.zeros(n)
        #: 1 where the source is associated with the congestion point.
        self.assoc = np.array(
            [s.regulator.associated_cpid == cpid for s in sources],
            dtype=np.uint8,
        )
        #: Emitting sources; cleared on departure or flow completion.
        self.active = np.ones(n, dtype=bool)
        #: Frames each finite flow still has to send (inf = persistent).
        self.remaining = np.array([
            np.inf if s.total_bits is None
            else float(np.ceil(s.total_bits / L))
            for s in sources
        ])
        self.frames_acc = np.zeros(n, dtype=np.int64)
        self.owed = np.zeros(n)  # lag-compensation ledger
        # Per-window scratch: first emission and frame count per source,
        # and the flows the last commit finished (index, finish time).
        self.first = np.empty(n)
        self.counts = np.empty(n, dtype=np.int64)
        self.fin_idx = np.empty(n, dtype=np.int64)
        self.fin_t = np.empty(n)
        self._src_idx = np.arange(n)
        self._empty = (np.empty(0), np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=bool))
        self._srcs = self._empty[1]  # sources of the last merged train

    def plan(self, until: float) -> int:
        """Fill ``first``/``counts`` for the window; return the frame total."""
        first = np.maximum(self.next_emit, self.paused, out=self.first)
        counts_f = np.where(
            self.active & (first <= until),
            np.floor((until - first) / self.gaps) + 1.0,
            0.0,
        )
        self.counts[:] = np.minimum(counts_f, self.remaining)
        return int(self.counts.sum())

    def merge(self, total: int, d: float):
        """The planned trains as one time-sorted ``(times, srcs, assoc)``."""
        if not total:
            self._srcs = self._empty[1]
            return self._empty
        counts = self.counts
        srcs = np.repeat(self._src_idx, counts)
        ends = np.cumsum(counts)
        offsets = np.arange(total) - np.repeat(ends - counts, counts)
        times = (np.repeat(self.first, counts)
                 + np.repeat(self.gaps, counts) * offsets + d)
        order = np.argsort(times, kind="stable")
        srcs = srcs[order]
        self._srcs = srcs
        return times[order], srcs, self.assoc[srcs].view(bool)

    def commit(self, m_committed: int) -> int:
        """Advance pacing by the committed prefix; return flows finished."""
        n = self._src_idx.size
        committed = (np.bincount(self._srcs[:m_committed], minlength=n)
                     if m_committed else np.zeros(n, dtype=np.int64))
        self.frames_acc += committed
        has = committed > 0
        first, gaps = self.first, self.gaps
        self.next_emit[has] = first[has] + gaps[has] * committed[has]
        held = (self.counts > 0) & ~has  # planned but cut off (PAUSE)
        self.next_emit[held] = first[held]
        self.remaining[has] -= committed[has]
        done = np.nonzero(has & (self.remaining <= 0))[0]
        if done.size:
            self.fin_idx[:done.size] = done
            self.fin_t[:done.size] = (first[done]
                                      + gaps[done] * (committed[done] - 1))
            self.active[done] = False
        return done.size

    def repay(self, until: float, nxt: float) -> None:
        """Move movable next emissions earlier to repay the owed bits."""
        if np.any(self.owed):
            next_emit, rates = self.next_emit, self.rates
            target = np.where(
                next_emit > until,
                np.maximum(next_emit - self.owed / rates, nxt),
                next_emit,
            )
            self.owed -= (next_emit - target) * rates
            next_emit[:] = target


class _CompiledPacing(_Pacing):
    """The same ops as closures bound by a compiled kernel backend.

    Binding marshals the persistent arrays once (on the cffi tier, the
    pointer casts) instead of on every window.  The merge buffers grow
    on demand; growing re-binds the closures that captured them.
    """

    def __init__(self, sources: list[TrafficSource], L: float, cpid: str,
                 be) -> None:
        super().__init__(sources, L, cpid)
        self._be = be
        self._comm = np.empty(len(sources), dtype=np.int64)
        # Sources with ``total_bits=None`` never finish, so the finish
        # bookkeeping can be skipped wholesale for pure-elephant runs.
        self._any_finite = 1 if np.isfinite(self.remaining).any() else 0
        self._empty = (np.empty(0), np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=np.uint8))
        self.plan = be.bind_pacing_plan(
            self.next_emit, self.paused, self.active, self.remaining,
            self.gaps, self.first, self.counts)
        self.repay = be.bind_owed_repay(self.owed, self.next_emit, self.rates)
        self._bind_merge(max(64, 4 * len(sources)))

    def _bind_merge(self, size: int) -> None:
        self._t = np.empty(size)
        self._src = np.empty(size, dtype=np.int64)
        self._assoc = np.empty(size, dtype=np.uint8)
        self._merge = self._be.bind_merge_trains(
            self.first, self.gaps, self.counts, self.assoc,
            self._t, self._src, self._assoc)
        self.commit = self._be.bind_pacing_commit(
            self._src, self.first, self.gaps, self.counts, self._any_finite,
            self.next_emit, self.remaining, self.active, self.frames_acc,
            self._comm, self.fin_idx, self.fin_t)

    def merge(self, total: int, d: float):
        if not total:
            return self._empty
        if total > self._t.shape[0]:
            self._bind_merge(2 * total)
        self._merge(d)
        return self._t[:total], self._src[:total], self._assoc[:total]


_REGULATOR_MODES = {"message": 0, "fluid-euler": 1, "fluid-exact": 2}


class _SoAMessages:
    """BCN delivery to struct-of-array regulator state in one kernel call.

    Valid only when every regulator follows the same law (gains, mode,
    ``max_dt``) and no source has an ``on_rate_change`` observer; the
    window loop otherwise delivers messages one by one through
    :meth:`TrafficSource.receive_control`.
    """

    def __init__(self, be, regs: list[RateRegulator],
                 pacing: _CompiledPacing, L: float, d: float) -> None:
        reg0 = regs[0]
        self._regs = regs
        self._pacing = pacing
        self._L = L
        self.last_update = np.array([
            np.nan if r._last_update is None else r._last_update
            for r in regs
        ])
        self.updates = np.zeros(len(regs), dtype=np.int64)
        self._out_d = np.empty(1)
        self._apply = be.bind_apply_messages(
            _REGULATOR_MODES[reg0.mode], reg0.gi, reg0.gd, reg0.ru,
            -1.0 if reg0.max_dt is None else float(reg0.max_dt), d,
            pacing.rates, self.last_update, pacing.assoc, self.updates,
            np.array([r.min_rate for r in regs]),
            np.array([r.line_rate for r in regs]),
            pacing.owed, self._out_d)

    @staticmethod
    def uniform(sources: list[TrafficSource]) -> bool:
        reg0 = sources[0].regulator
        return reg0.mode in _REGULATOR_MODES and all(
            s.on_rate_change is None
            and s.regulator.gi == reg0.gi
            and s.regulator.gd == reg0.gd
            and s.regulator.ru == reg0.ru
            and s.regulator.mode == reg0.mode
            and s.regulator.max_dt == reg0.max_dt
            for s in sources
        )

    def apply(self, window, total_rate: float) -> float:
        """Apply the window's messages; return the new aggregate rate."""
        if window.msg_t.size:
            self._out_d[0] = total_rate
            self._apply(window.msg_t, window.msg_src, window.msg_fb,
                        window.msg_sigma, window.t_commit)
            total_rate = float(self._out_d[0])
            np.divide(self._L, self._pacing.rates, out=self._pacing.gaps)
        return total_rate

    def sync(self, cpid: str) -> None:
        """Fold the array state back into the regulator objects."""
        pacing = self._pacing
        for i, reg in enumerate(self._regs):
            reg.rate = float(pacing.rates[i])
            lu = float(self.last_update[i])
            reg._last_update = None if lu != lu else lu
            reg.updates_applied += int(self.updates[i])
            reg.associated_cpid = cpid if pacing.assoc[i] else None


@dataclass
class SimulationResult:
    """Outcome of a packet-level run.

    Attributes
    ----------
    t, queue:
        Sampled queue-length series (seconds, bits).
    rate_t, rate_total:
        Sampled aggregate offered rate series (sum of regulator rates).
    per_source_rate:
        Final per-source rates in bits/s.
    dropped_frames, forwarded_frames:
        Bottleneck counters.
    bcn_negative, bcn_positive, pauses:
        Control-plane counters.
    delivered_bits:
        Bits serviced by the bottleneck over the run.
    duration:
        Simulated horizon in seconds.
    """

    t: np.ndarray
    queue: np.ndarray
    rate_t: np.ndarray
    rate_total: np.ndarray
    per_source_rate: np.ndarray
    dropped_frames: int
    forwarded_frames: int
    bcn_negative: int
    bcn_positive: int
    pauses: int
    delivered_bits: float
    duration: float
    capacity: float

    def utilization(self) -> float:
        """Bottleneck utilisation over the whole run."""
        return self.delivered_bits / (self.capacity * self.duration)

    def jain_fairness(self) -> float:
        """Jain's fairness index of the final per-source rates."""
        r = self.per_source_rate
        if r.size == 0 or float(np.sum(r * r)) == 0.0:
            return 1.0
        return float(np.sum(r)) ** 2 / (r.size * float(np.sum(r * r)))

    def queue_peak(self) -> float:
        return float(self.queue.max()) if self.queue.size else 0.0

    def queue_mean(self, *, settle: float = 0.0) -> float:
        mask = self.t >= settle
        return float(self.queue[mask].mean()) if mask.any() else 0.0

    def queue_std(self, *, settle: float = 0.0) -> float:
        mask = self.t >= settle
        return float(self.queue[mask].std()) if mask.any() else 0.0


class BCNNetworkSimulator:
    """Builds and runs the dumbbell BCN scenario of Fig. 1.

    Parameters
    ----------
    params:
        Physical BCN parameters (capacity, gains, thresholds...).
    frame_bits:
        Data frame size; default 1500 bytes.
    propagation_delay:
        One-way link delay (data and control paths alike); the paper's
        model takes it negligible, default 0.5 us as in the Section IV
        example.
    initial_rate:
        Per-source starting rate; defaults to 1.5x the fair share so
        congestion forms and the BCN loop engages.
    regulator_mode:
        ``"message"`` (draft per-message AIMD on the quantized FB
        field), ``"fluid-euler"`` or ``"fluid-exact"`` (integrate the
        fluid laws between messages); see
        :class:`repro.simulation.source.RateRegulator`.
    fb_bits:
        FB quantization width at the switch (None = raw sigma).
    require_association:
        Gate positive BCN on RRT/CPID match (draft behaviour); set
        False for the paper's idealised unconditional positive feedback.
    enable_pause:
        Wire 802.3x PAUSE from the core switch back to the sources.
    queue_sample_interval:
        Recorder period for the queue series; defaults to 50 service
        times.
    engine:
        ``"reference"`` (the event-driven kernel, one callback per
        frame — the differential oracle) or ``"batched"`` (frame-train
        batching: sources plan whole emission trains and the switch
        drains them window by window; see :meth:`_run_windows` for how
        the platform picks the kernel tier).  ``"compiled"`` is accepted
        as a synonym of ``"batched"`` (:func:`resolve_engine`).
        Both engines are deterministic; they agree within a documented
        tolerance — the batched engine computes queue/sigma/sampling
        exactly but applies control messages to the regulators at
        window boundaries, so rate changes can lag their reference
        timing by up to one ``control_quantum``.
    control_quantum:
        Window length for the batched engine; defaults to twice the
        expected BCN inter-message time (small enough that the
        compensated regulator lag stays well below the control loop
        period, large enough to amortize the numpy batch overhead).
    obs:
        Optional :class:`repro.obs.Observability` handle.  The switch
        emits ``bcn``/``pause_on``/``pause_off``/``drop`` events live
        under ``engine="packet.<engine>"``; :meth:`run` adds a
        ``packet.<engine>.run`` span, derives ``region_switch`` events
        from the sampled sigma history and fills the normalised queue
        histograms from the recorder series.
    """

    def __init__(
        self,
        params: BCNParams,
        *,
        frame_bits: int = 1500 * 8,
        propagation_delay: float = 0.5e-6,
        initial_rate: float | None = None,
        regulator_mode: str = "message",
        fb_bits: int | None = 6,
        min_rate: float | None = None,
        enable_pause: bool = True,
        pause_duration: float = 50e-6,
        queue_sample_interval: float | None = None,
        require_association: bool = True,
        positive_only_below_q0: bool = True,
        random_sampling: bool = False,
        engine: str = "reference",
        control_quantum: float | None = None,
        obs=None,
    ) -> None:
        engine = resolve_engine(engine)
        self.params = params
        self.frame_bits = frame_bits
        self.engine = engine
        self.sim = Simulator()
        self._propagation_delay = propagation_delay
        self._enable_pause = enable_pause
        self._pause_duration = pause_duration
        self._quantum_explicit = control_quantum is not None
        if control_quantum is None:
            # Auto window: the fluid regulator modes integrate feedback
            # over elapsed time, so the owed-bits pacing compensation
            # keeps two message intervals per window accurate; message
            # mode takes large per-message rate jumps (up to 50% each),
            # so halve the window to keep the boundary-application lag
            # inside the documented tolerance.
            emi = expected_message_interval(
                params.n_flows, frame_bits, params.pm, params.capacity
            )
            control_quantum = emi if regulator_mode == "message" else 2.0 * emi
        self._control_quantum = control_quantum
        if initial_rate is None:
            # Start in mild overload so the BCN loop engages: at exactly
            # the fair share the queue never builds and (per the draft)
            # no source ever associates with the congestion point.
            initial_rate = 1.5 * params.capacity / params.n_flows
        if min_rate is None:
            min_rate = min(1e6, initial_rate)
        self._regulator_mode = regulator_mode
        self._initial_rate = initial_rate
        self._min_rate = min_rate
        #: Timed events ``(t, seq, kind, payload)`` injected by the
        #: scenario layer; ``seq`` preserves registration order among
        #: same-timestamp events (see :meth:`schedule_capacity`).
        self._timed_events: list[tuple[float, int, str, tuple]] = []
        self._queue_dt = (
            queue_sample_interval
            if queue_sample_interval is not None
            else 50 * frame_bits / params.capacity
        )

        self.switch = CoreSwitch(
            self.sim,
            cpid="core-0",
            capacity=params.capacity,
            q0=params.q0,
            buffer_bits=params.buffer_size,
            w=params.w,
            pm=params.pm,
            q_sc=params.severe_threshold if enable_pause else None,
            pause_duration=pause_duration,
            forward=self._deliver,
            require_association=require_association,
            positive_only_below_q0=positive_only_below_q0,
            fb_bits=fb_bits,
            random_sampling=random_sampling,
        )
        self.obs = obs if (obs is not None and obs.enabled) else None
        self.switch.attach_obs(self.obs, f"packet.{engine}")

        self.sources: list[TrafficSource] = []
        self._delivered_bits = 0.0
        self._queue_samples = _SeriesBuffer()
        self._rate_samples = _SeriesBuffer()

        for i in range(params.n_flows):
            regulator = RateRegulator(
                gi=params.gi,
                gd=params.gd,
                ru=params.ru,
                initial_rate=initial_rate,
                min_rate=min_rate,
                line_rate=params.capacity,
                mode=regulator_mode,
                max_dt=4.0
                * expected_message_interval(
                    params.n_flows, frame_bits, params.pm, params.capacity
                ),
            )
            uplink = Link(self.sim, propagation_delay, self.switch.receive)
            source = TrafficSource(
                self.sim,
                address=i,
                regulator=regulator,
                send=uplink.transmit,
                frame_bits=frame_bits,
            )
            backlink = Link(self.sim, propagation_delay, source.receive_control)
            self.switch.register_bcn_link(i, backlink)
            if enable_pause:
                self.switch.register_pause_link(backlink)
            self.sources.append(source)

    # -- internal ------------------------------------------------------------

    def _deliver(self, frame: EthernetFrame) -> None:
        self._delivered_bits += frame.size_bits

    def _record(self) -> None:
        self._queue_samples.append(self.sim.now, self.switch.queue_bits)
        total_rate = sum(s.rate for s in self.sources)
        self._rate_samples.append(self.sim.now, total_rate)

    # -- scenario hooks: dynamic flows and timed events -------------------

    def add_flow(
        self,
        *,
        start_time: float = 0.0,
        demand: float | None = None,
        size_bits: float | None = None,
    ) -> TrafficSource:
        """Add a dynamic flow (declared before :meth:`run`).

        The flow's source starts pacing at ``start_time``, sends at up
        to ``demand`` bits/s (default: the base initial rate) under the
        same BCN regulator laws as the built-in sources, and — when
        ``size_bits`` is given — stops after that many bits, recording
        its send-side completion in ``TrafficSource.finish_time``.
        Both packet engines honour all three knobs identically.
        """
        if demand is None:
            demand = self._initial_rate
        if demand <= 0:
            raise ValueError("demand must be positive")
        address = len(self.sources)
        regulator = RateRegulator(
            gi=self.params.gi,
            gd=self.params.gd,
            ru=self.params.ru,
            initial_rate=demand,
            min_rate=min(self._min_rate, demand),
            line_rate=demand,
            mode=self._regulator_mode,
            max_dt=4.0
            * expected_message_interval(
                self.params.n_flows, self.frame_bits, self.params.pm,
                self.params.capacity,
            ),
        )
        uplink = Link(self.sim, self._propagation_delay, self.switch.receive)
        source = TrafficSource(
            self.sim,
            address=address,
            regulator=regulator,
            send=uplink.transmit,
            frame_bits=self.frame_bits,
            total_bits=size_bits,
            start_time=start_time,
        )
        backlink = Link(self.sim, self._propagation_delay,
                        source.receive_control)
        self.switch.register_bcn_link(address, backlink)
        if self._enable_pause:
            self.switch.register_pause_link(backlink)
        self.sources.append(source)
        return source

    def _register_event(self, t: float, kind: str, payload: tuple) -> None:
        if t < 0:
            raise ValueError("event time cannot be negative")
        self._timed_events.append((t, len(self._timed_events), kind, payload))

    def schedule_capacity(self, t: float, capacity: float) -> None:
        """At time ``t`` change the bottleneck service rate to ``capacity``.

        Takes effect from the next service start (store-and-forward);
        the batched engine truncates its control window at ``t`` so the
        rate is constant within every window.  Same-timestamp events
        apply in registration order.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._register_event(t, "capacity", (capacity,))

    def schedule_outage(self, t: float, outage_duration: float) -> None:
        """Black out the bottleneck egress during ``[t, t + duration)``.

        The in-flight frame completes; no new service starts while the
        link is down.  Arrivals keep queueing and drop-tail keeps
        applying, so a long outage fills the buffer and drops.
        """
        if outage_duration <= 0:
            raise ValueError("outage_duration must be positive")
        self._register_event(t, "outage", (outage_duration,))

    def schedule_departure(self, t: float, address: int) -> None:
        """At time ``t`` mute source ``address`` permanently.

        Departure is a permanent mute: the regulator state stays in
        place (its rate still counts toward the recorded aggregate,
        matching both engines) but no further frames are emitted.
        """
        if not 0 <= address:
            raise ValueError("address must be non-negative")
        self._register_event(t, "departure", (address,))

    def _apply_event(self, kind: str, payload: tuple) -> None:
        """Apply one timed event (reference engine, at its sim time)."""
        if kind == "capacity":
            self.switch.set_capacity(payload[0])
        elif kind == "outage":
            self.switch.suspend_service(self.sim.now + payload[0])
        elif kind == "departure":
            self.sources[payload[0]].muted = True
        else:  # pragma: no cover - _register_event controls the kinds
            raise ValueError(f"unknown event kind {kind!r}")

    def _run_windows(self, duration: float) -> None:
        """Drive the scenario in control-quantum windows (batched engine).

        Within a window every regulator's rate is frozen, so each source
        contributes an arithmetic emission train (one gap apart from its
        pending emission, held vectorized across sources by
        :class:`_Pacing`); the merged train goes through the switch
        window kernel, which returns the BCN messages (and possibly a
        PAUSE) the window generated.  Control is delivered to the
        sources at the window boundary with its true timestamps — the
        regulator arithmetic (including the fluid modes' ``dt``
        integration) is exact, but a rate update takes effect on pacing
        up to one window later than under the reference engine.  The
        first-order part of that lag is compensated: each update books
        the bits the new rate would have (not) sent before the boundary
        and shifts the source's next emission to repay them, so the
        emitted bit count tracks the reference pacing to second order
        in the quantum.  A PAUSE truncates the window so its boundary
        stays sharp; a window where drop-tail engages is replayed
        frame-by-frame by the kernel's exact scalar fallback.

        The kernel tier is the platform's, not the caller's: with a
        compiled :func:`repro.kernels.get_backend` the ops that plan,
        merge, commit and repay the trains are its bound kernels
        (:class:`_CompiledPacing`), the switch is a
        :class:`~repro.kernels.CompiledSwitchKernel`, and — when every
        regulator follows the same law and no ``on_rate_change``
        observer is attached — the BCN messages apply to struct-of-array
        regulator state in one kernel call, folded back into the
        :class:`RateRegulator` objects at the end of the run.  Without
        one the same ops run as numpy (:class:`_Pacing`,
        :class:`BatchedSwitchKernel`), which the kernels match
        bit-for-bit.

        Timed events (:meth:`schedule_capacity`, :meth:`schedule_outage`,
        :meth:`schedule_departure`) are additional window boundaries:
        ``t_end`` clamps to the next event time, the event applies when
        the clock lands exactly on it, and the per-source state arrays
        are re-synced before the next window is planned.  Dynamic flows
        (``start_time`` / ``total_bits``) need no boundary — a start
        mid-window is just a later first emission of the arithmetic
        train, and finite flows cap their train at the frames they have
        left.
        """
        from ..kernels import get_backend

        be = get_backend()
        if any(s.muted for s in self.sources):
            raise NotImplementedError(
                f"the {self.engine} engine cannot pace initially-muted "
                "(on/off) sources; use engine='reference' for those "
                "workloads"
            )
        d = self._propagation_delay
        L = float(self.frame_bits)
        n = len(self.sources)
        cpid = self.switch.cpid
        kernel_kw = dict(
            pause_fanout=n if self._enable_pause else 0,
            # Frames emitted before a PAUSE reaches their source (one
            # propagation delay control-path, then one data-path back)
            # are in flight and must land, as in the reference engine.
            pause_commit_horizon=2.0 * d,
        )
        soa = None
        if not be.compiled:
            kernel = BatchedSwitchKernel(self.switch, self.frame_bits,
                                         **kernel_kw)
            pacing = _Pacing(self.sources, L, cpid)
        else:
            from ..kernels import CompiledSwitchKernel, consume_warmup_span

            if self.obs is not None:
                consume_warmup_span(self.obs)
            kernel = CompiledSwitchKernel(self.switch, self.frame_bits,
                                          backend=be, **kernel_kw)
            pacing = _CompiledPacing(self.sources, L, cpid, be)
            if _SoAMessages.uniform(self.sources):
                soa = _SoAMessages(
                    be, [s.regulator for s in self.sources], pacing, L, d)
        self._batched_kernel = kernel
        # The auto quantum (2x the expected message interval) assumes the
        # run is long relative to the control loop; cap it so short runs
        # still get enough windows for the boundary-applied messages to
        # track the reference dynamics.  An explicit control_quantum is
        # always respected.
        quantum = self._control_quantum
        if not self._quantum_explicit:
            quantum = min(quantum, duration / 32.0)
        dt = self._queue_dt

        # Recorder grid mirroring the reference engine: one sample at
        # t=0, one per tick, and a final sample at `duration` (which
        # duplicates the last tick when duration is a tick multiple,
        # exactly as the event-driven recorder does).
        ticks = dt * np.arange(1, int(np.floor(duration / dt + 1e-9)) + 1)
        grid = np.concatenate([ticks[ticks <= duration], [duration]])
        grid_pos = 0
        self._record()

        rates, gaps, assoc = pacing.rates, pacing.gaps, pacing.assoc
        paused, owed = pacing.paused, pacing.owed
        total_rate = float(rates.sum())
        plan, repay = pacing.plan, pacing.repay

        events = sorted(self._timed_events)
        ev_pos = 0

        t = 0.0
        while t < duration:
            # Apply every timed event the clock has reached; each is a
            # window boundary, so normally ev_t == t exactly.
            while ev_pos < len(events) and events[ev_pos][0] <= t:
                ev_t, _, kind, payload = events[ev_pos]
                ev_pos += 1
                if kind == "capacity":
                    kernel.set_capacity(payload[0])
                elif kind == "outage":
                    kernel.freeze_until(ev_t + payload[0])
                elif kind == "departure":
                    self.sources[payload[0]].muted = True
                    pacing.active[payload[0]] = False
            next_ev = events[ev_pos][0] if ev_pos < len(events) else np.inf
            t_end = min(t + quantum, duration, next_ev)
            until = t_end - d
            times, srcs, win_assoc = pacing.merge(int(plan(until)), d)

            window = kernel.process(t, t_end, times, srcs, win_assoc)

            # Advance each source's pacing by its committed prefix while
            # the planning rate is still in force.
            for k in range(int(pacing.commit(window.committed))):
                # Send-side FCT: emission time of the last frame,
                # matching TrafficSource._emit in the reference path.
                self.sources[int(pacing.fin_idx[k])].finish_time = float(
                    pacing.fin_t[k])
            self._delivered_bits += window.delivered_bits

            # Emit recorder samples covered by this window.
            hi = int(np.searchsorted(grid, window.t_commit, side="right"))
            if hi > grid_pos:
                pts = grid[grid_pos:hi]
                self._queue_samples.extend(pts, kernel.queue_at(pts))
                self._rate_samples.extend(
                    pts, np.full(pts.size, total_rate)
                )
                grid_pos = hi

            # Deliver the window's control plane in timestamp order.
            if soa is not None:
                total_rate = soa.apply(window, total_rate)
            else:
                for k in range(window.msg_t.size):
                    i = int(window.msg_src[k])
                    sent_at = float(window.msg_t[k])
                    deliver_at = sent_at + d
                    self.sim._now = deliver_at
                    source = self.sources[i]
                    rate_before = source.regulator.rate
                    source.receive_control(
                        BCNMessage(
                            da=i,
                            sa=cpid,
                            cpid=cpid,
                            fb=float(window.msg_fb[k]),
                            q_off=float(window.msg_q_off[k]),
                            q_delta=float(window.msg_dq[k]),
                            fb_raw=float(window.msg_sigma[k]),
                            sent_at=sent_at,
                        )
                    )
                    rate_after = source.regulator.rate
                    if rate_after != rate_before:
                        delta = rate_after - rate_before
                        owed[i] += delta * max(
                            window.t_commit - deliver_at, 0.0
                        )
                        total_rate += delta
                        rates[i] = rate_after
                        gaps[i] = L / rate_after
                    assoc[i] = source.regulator.associated_cpid == cpid
            if window.pause_at is not None and self._enable_pause:
                self.sim._now = window.pause_at + d
                pause = PauseFrame(
                    sa=cpid,
                    duration=self._pause_duration,
                    sent_at=window.pause_at,
                )
                for i, source in enumerate(self.sources):
                    source.receive_control(pause)
                    paused[i] = source.paused_until

            # Repay the lag ledger: a positive balance means the new
            # rate would have sent more bits before the boundary, so
            # the next emission moves earlier (clamped to stay beyond
            # the planned horizon; the unpaid remainder carries over).
            # Sources holding a cut-off emission keep their schedule.
            repay(until, np.nextafter(until, np.inf))

            t = window.t_commit

        for i, source in enumerate(self.sources):
            source.frames_sent += int(pacing.frames_acc[i])
            source.bits_sent += float(pacing.frames_acc[i]) * L
        if soa is not None:
            soa.sync(cpid)
        self.sim._now = duration

    # -- driving ---------------------------------------------------------------

    def run(self, duration: float) -> SimulationResult:
        """Run the scenario for ``duration`` seconds of simulated time."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        wall_start = _time.monotonic() if self.obs is not None else 0.0  # repro-lint: disable=wall-clock -- obs run-span wall-time
        if self.engine != "reference":
            self._run_windows(duration)
        else:
            # Timed events first: heap ties at the same timestamp break
            # by insertion order, so events registered here fire before
            # any frame arrival scheduled mid-run for the same instant.
            for t_event, _, kind, payload in sorted(self._timed_events):
                self.sim.schedule_at(
                    t_event,
                    lambda kind=kind, payload=payload: self._apply_event(
                        kind, payload
                    ),
                )
            for source in self.sources:
                if source.start_time > 0.0:
                    self.sim.schedule_at(source.start_time, source.start)
                else:
                    source.start()
            self._record()
            self.sim.schedule_every(
                self._queue_dt, self._record, until=duration
            )
            self.sim.run(until=duration)
            self._record()

        t_q, q = self._queue_samples.arrays()
        t_r, r = self._rate_samples.arrays()
        if self.obs is not None:
            from ..obs import emit_sign_switches
            engine_tag = f"packet.{self.engine}"
            self.obs.add_span(f"{engine_tag}.run",
                              _time.monotonic() - wall_start)  # repro-lint: disable=wall-clock -- obs run-span wall-time
            # The control law is evaluated at sample instants only, so
            # region membership is known exactly there: a sign change of
            # the sampled sigma is a region switch in either engine.
            hist = self.switch.sigma_history
            emit_sign_switches(self.obs, [h[0] for h in hist],
                               [h[1] for h in hist], engine=engine_tag,
                               node=self.switch.cpid)
            self.obs.observe_queue(engine_tag, q,
                                   self.params.buffer_size, self.params.q0)
        return SimulationResult(
            t=t_q,
            queue=q,
            rate_t=t_r,
            rate_total=r,
            per_source_rate=np.array([s.rate for s in self.sources]),
            dropped_frames=self.switch.queue.dropped_frames,
            forwarded_frames=self.switch.stats.forwarded_frames,
            bcn_negative=self.switch.stats.bcn_negative,
            bcn_positive=self.switch.stats.bcn_positive,
            pauses=self.switch.stats.pauses_sent,
            delivered_bits=self._delivered_bits,
            duration=duration,
            capacity=self.params.capacity,
        )
