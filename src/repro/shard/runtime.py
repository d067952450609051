"""Per-shard simulation state: one event kernel over one fabric region.

A :class:`ShardRuntime` instantiates exactly the ports and sources its
shard owns (per the :class:`~repro.shard.plan.ShardPlan` ownership
rules) and steps them window by window.  Channels whose far end lives
in another shard are replaced by :class:`RemoteLink` stubs that append
to a per-destination outbox instead of scheduling locally; the
coordinator exchanges outboxes at every window barrier.

Determinism contract
--------------------
Construction and the run preamble replay the serial
:class:`~repro.simulation.multihop.MultiHopNetwork` order exactly —
ports in first-traversal order over flows, sources in flow order, BCN
before PAUSE wiring per flow — so a one-shard plan produces the
bitwise-identical event sequence.  Inbound messages are scheduled in
the canonical ``(arrival_time, source_shard, message_seq)`` order,
which depends only on the plan, never on how shards map to workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

from ..simulation.engine import Simulator
from ..simulation.frames import EthernetFrame
from ..simulation.link import Link
from ..simulation.multihop import OBS_ENGINE, QueueRecorder
from ..simulation.source import RateRegulator, TrafficSource
from ..simulation.switch import CoreSwitch
from ..workloads.flows import FlowSpec
from .plan import ShardPlan

__all__ = ["RemoteLink", "ShardRuntime"]

Edge = tuple[str, str]

#: Message kinds on the barrier wire, dispatched to the owning object:
#: ``frame`` -> port.receive, ``ctrl`` -> source.receive_control,
#: ``pause`` -> port.receive_pause.
_KINDS = ("frame", "ctrl", "pause")


@dataclass
class RemoteLink:
    """A :class:`~repro.simulation.link.Link` whose far end is remote.

    Duck-types ``transmit``: instead of scheduling a local delivery it
    stamps the arrival time (``now + delay``) and appends to the
    runtime's outbox for the owning shard.  The conservative window
    guarantees the message is exchanged before the receiver simulates
    past its arrival.
    """

    runtime: "ShardRuntime"
    dst_shard: int
    delay: float
    kind: str
    target: object

    def transmit(self, payload) -> None:
        self.runtime._emit(
            self.dst_shard,
            self.runtime.sim.now + self.delay,
            self.kind,
            self.target,
            payload,
        )


class ShardRuntime:
    """Build and step one shard of a sharded fabric run.

    Lifecycle (driven by the coordinator, locally or over the worker
    pool): construct, :meth:`start`, ``run_window`` per barrier,
    :meth:`finish` for the partial result.
    """

    def __init__(
        self,
        plan: ShardPlan,
        shard: int,
        timed_events: list[tuple[float, int, str, tuple]],
        obs_enabled: bool = False,
    ) -> None:
        self.plan = plan
        self.shard = shard
        # (flow, node) -> hop index, mirroring MultiHopNetwork's O(1)
        # forwarding lookup.
        self._hop_index = {
            fid: {node: i for i, node in enumerate(route)}
            for fid, route in plan.routes.items()
        }
        self._timed_events = timed_events
        if obs_enabled:
            from ..obs import Observability

            self.obs = Observability()
        else:
            self.obs = None
        self.sim = Simulator()

        # Mirror the serial construction order exactly (see module
        # docstring): ports in first-traversal order over flows...
        self.ports: dict[Edge, CoreSwitch] = {}
        for spec in plan.flows:
            route = plan.routes[spec.flow_id]
            for edge in _route_edges(route):
                if edge[0] == route[0]:
                    continue  # host NIC: pacing models the first hop
                if plan.port_owner.get(edge) == shard and edge not in self.ports:
                    self.ports[edge] = self._make_port(*edge)

        # ...then sources (and control wiring) in flow order.
        self._specs = {spec.flow_id: spec for spec in plan.flows}
        self._finish_times: dict[int, float] = {}
        self._pause_wired: set[tuple[Edge, tuple[str, str]]] = set()
        self._fwd_links: dict[Edge, Link] = {}
        self._remote_fwd: dict[Edge, RemoteLink] = {}
        self.sources: dict[int, TrafficSource] = {}
        self._delivered: dict[int, float] = {}
        self._outbox: dict[int, list[tuple[float, str, object, object]]] = {}
        self._msgs_sent = 0
        self._msgs_recv = 0
        self._window_count = 0
        for spec in plan.flows:
            self._wire_flow(spec)

        self._recorder: QueueRecorder | None = None

    # -- construction ------------------------------------------------------

    def _make_port(self, u: str, v: str) -> CoreSwitch:
        cfg = self.plan.config
        port = CoreSwitch(
            self.sim,
            cpid=f"{u}->{v}",
            capacity=self.plan.graph.edges[u, v]["capacity"],
            q0=cfg.q0,
            buffer_bits=cfg.buffer_bits,
            w=cfg.w,
            pm=cfg.pm,
            q_sc=cfg.q_sc,
            fb_bits=cfg.fb_bits,
        )
        port.forward = lambda frame, _v=v: self._forward(frame, _v)
        port.attach_obs(self.obs, OBS_ENGINE)
        return port

    def _wire_flow(self, spec: FlowSpec) -> None:
        plan = self.plan
        fid = spec.flow_id
        route = plan.routes[fid]
        edges = _route_edges(route)
        owns_source = plan.source_owner[fid] == self.shard

        source: TrafficSource | None = None
        if owns_source:
            cfg = plan.config
            regulator = RateRegulator(
                gi=cfg.gi,
                gd=cfg.gd,
                ru=cfg.ru,
                initial_rate=spec.demand,
                min_rate=cfg.min_rate,
                line_rate=spec.demand,
                mode=cfg.regulator_mode,
            )
            source = TrafficSource(
                self.sim,
                address=fid,
                regulator=regulator,
                send=self._uplink(fid, route, edges).transmit,
                frame_bits=plan.frame_bits,
                dst=spec.dst,
                total_bits=spec.size_bits,
            )
            self.sources[fid] = source
            self._delivered.setdefault(fid, 0.0)

        def control_link(latency: float):
            """Link carrying BCN/PAUSE back to this flow's source."""
            if owns_source:
                return Link(self.sim, latency, source.receive_control)
            return RemoteLink(
                self, plan.source_owner[fid], latency, "ctrl", fid
            )

        # Backward control path at every *owned* port on the route.
        on_route = [e for e in edges if e in plan.port_owner]
        for i, edge in enumerate(edges):
            if edge in plan.port_owner and plan.port_owner[edge] == self.shard:
                back = control_link(plan.delay * (i + 1))
                self.ports[edge].register_bcn_link(fid, back)
                if not plan.hop_level_pause:
                    self.ports[edge].register_pause_link(back)

        if plan.hop_level_pause and on_route:
            # Hop-by-hop 802.3x, same dedup keys as the serial network:
            # the first in-fabric port pauses the source NIC, every
            # downstream port pauses the port feeding it.
            first = on_route[0]
            key = (first, ("src", str(fid)))
            if plan.port_owner[first] == self.shard and key not in self._pause_wired:
                self._pause_wired.add(key)
                self.ports[first].register_pause_link(control_link(plan.delay))
            for upstream, downstream in zip(on_route, on_route[1:]):
                key = (downstream, upstream)
                if plan.port_owner[downstream] != self.shard:
                    continue
                if key in self._pause_wired:
                    continue
                self._pause_wired.add(key)
                if plan.port_owner[upstream] == self.shard:
                    link = Link(
                        self.sim, plan.delay, self.ports[upstream].receive_pause
                    )
                else:
                    link = RemoteLink(
                        self, plan.port_owner[upstream], plan.delay,
                        "pause", upstream,
                    )
                self.ports[downstream].register_pause_link(link)

    def _uplink(self, fid: int, route: tuple[str, ...], edges: list[Edge]):
        """The source's NIC link to its first in-fabric port (or sink)."""
        if len(edges) >= 2:
            entry = edges[1]
            if self.plan.port_owner[entry] == self.shard:
                return Link(self.sim, self.plan.delay, self.ports[entry].receive)
            return RemoteLink(
                self, self.plan.port_owner[entry], self.plan.delay,
                "frame", entry,
            )
        # Direct host-to-host (DCell level links): deliver straight away.
        return Link(self.sim, self.plan.delay, self._sink(fid))

    def _sink(self, fid: int):
        def deliver(frame: EthernetFrame) -> None:
            self._record_delivery(frame.flow_id, frame.size_bits)

        return deliver

    # -- data path ---------------------------------------------------------

    def _record_delivery(self, flow_id: int, bits: float) -> None:
        self._delivered[flow_id] = self._delivered.get(flow_id, 0.0) + bits
        spec = self._specs[flow_id]
        if (spec.size_bits is not None
                and flow_id not in self._finish_times
                and self._delivered[flow_id] >= spec.size_bits):
            self._finish_times[flow_id] = self.sim.now

    def _forward(self, frame: EthernetFrame, at_node: str) -> None:
        route = self.plan.routes[frame.flow_id]
        idx = self._hop_index[frame.flow_id][at_node]
        if idx == len(route) - 1:
            self._record_delivery(frame.flow_id, frame.size_bits)
            return
        next_edge = (at_node, route[idx + 1])
        if self.plan.port_owner[next_edge] == self.shard:
            link = self._fwd_links.get(next_edge)
            if link is None:
                link = Link(
                    self.sim, self.plan.delay, self.ports[next_edge].receive
                )
                self._fwd_links[next_edge] = link
            link.transmit(frame)
            return
        remote = self._remote_fwd.get(next_edge)
        if remote is None:
            remote = RemoteLink(
                self, self.plan.port_owner[next_edge], self.plan.delay,
                "frame", next_edge,
            )
            self._remote_fwd[next_edge] = remote
        remote.transmit(frame)

    def _emit(self, dst_shard: int, arrival: float, kind: str,
              target: object, payload: object) -> None:
        self._outbox.setdefault(dst_shard, []).append(
            (arrival, kind, target, payload)
        )
        self._msgs_sent += 1

    # -- lifecycle (coordinator-driven) ------------------------------------

    def start(self, duration: float) -> None:
        """Schedule timed events, source starts and queue sampling.

        Mirrors the serial ``run()`` preamble verbatim: sorted timed
        events, sources in flow order, one immediate sample, then the
        periodic recorder.
        """
        for t_event, _, kind, payload in sorted(
            self._timed_events, key=lambda ev: ev[:2]
        ):
            self.sim.schedule_at(
                t_event, partial(self._apply_event, kind, payload)
            )
        for spec in self.plan.flows:
            if spec.flow_id in self.sources:
                self.sim.schedule_at(
                    spec.start_time, self.sources[spec.flow_id].start
                )
        expected = int(duration / self.plan.queue_dt) + 3
        self._recorder = QueueRecorder(self.sim, self.ports, expected)
        self._recorder.record()
        self.sim.schedule_every(
            self.plan.queue_dt, self._recorder.record, until=duration
        )

    def _apply_event(self, kind: str, payload: tuple) -> None:
        if kind == "capacity":
            self.ports[payload[0]].set_capacity(payload[1])
        elif kind == "outage":
            outage_duration, port = payload
            until = self.sim.now + outage_duration
            edges = [port] if port is not None else list(self.ports)
            for edge in edges:
                self.ports[edge].suspend_service(until)
        elif kind == "departure":
            self.sources[payload[0]].muted = True
        else:  # pragma: no cover - plan.events_for_shard already validates
            raise ValueError(f"unknown timed event kind {kind!r}")

    def run_window(
        self,
        t_end: float,
        inbound: list[tuple[float, int, int, str, object, object]],
    ) -> dict[int, list[tuple[float, str, object, object]]]:
        """Deliver inbound barrier messages, simulate up to ``t_end``.

        ``inbound`` rows are ``(arrival, src_shard, seq, kind, target,
        payload)``; they are scheduled in canonical sorted order so the
        local tie-break is identical for every worker layout.  Returns
        (and clears) the outbox accumulated during the window.
        """
        wall = time.perf_counter() if self.obs is not None else 0.0
        now = self.sim.now
        for arrival, _src, _seq, kind, target, payload in sorted(
            inbound, key=lambda m: (m[0], m[1], m[2])
        ):
            self._msgs_recv += 1
            if kind == "frame":
                fn = self.ports[target].receive
            elif kind == "ctrl":
                fn = self.sources[target].receive_control
            elif kind == "pause":
                fn = self.ports[target].receive_pause
            else:
                raise ValueError(f"unknown barrier message kind {kind!r}")
            # Guard against float round-off placing the arrival a hair
            # before the barrier the receiver already reached; the clamp
            # is layout-independent (every shard sits exactly at the
            # window edge when messages are delivered).
            self.sim.schedule_at(max(arrival, now), partial(fn, payload))
        self.sim.run_window(t_end)
        self._window_count += 1
        out = self._outbox
        self._outbox = {}
        if self.obs is not None:
            self.obs.add_span("shard.window", time.perf_counter() - wall)
        return out

    def finish(self) -> dict:
        """Final sample + per-shard partial result for the merge."""
        assert self._recorder is not None, "finish() before start()"
        self._recorder.record()
        if self.obs is not None:
            from ..obs import emit_sign_switches

            self.obs.count("shard.msgs.sent", self._msgs_sent)
            self.obs.count("shard.msgs.recv", self._msgs_recv)
            queues = self._recorder.queues()
            for edge, port in self.ports.items():
                hist = port.sigma_history
                emit_sign_switches(self.obs, [h[0] for h in hist],
                                   [h[1] for h in hist],
                                   engine=OBS_ENGINE, node=port.cpid)
                self.obs.observe_queue(
                    OBS_ENGINE, queues[edge],
                    self.plan.config.buffer_bits, self.plan.config.q0)
        return {
            "shard": self.shard,
            "delivered": dict(self._delivered),
            "finish_times": dict(self._finish_times),
            "rates": {fid: src.rate for fid, src in self.sources.items()},
            "port_queues": self._recorder.queues(),
            "sample_times": self._recorder.times(),
            "dropped": sum(
                p.queue.dropped_frames for p in self.ports.values()
            ),
            "bcn_negative": sum(
                p.stats.bcn_negative for p in self.ports.values()
            ),
            "bcn_positive": sum(
                p.stats.bcn_positive for p in self.ports.values()
            ),
            "pauses": sum(p.stats.pauses_sent for p in self.ports.values()),
            "msgs_sent": self._msgs_sent,
            "msgs_recv": self._msgs_recv,
            "obs": self.obs.snapshot() if self.obs is not None else None,
        }


def _route_edges(route: tuple[str, ...]) -> list[Edge]:
    return list(zip(route, route[1:]))
