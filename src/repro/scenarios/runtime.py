"""Interpret a :class:`~repro.scenarios.events.Scenario` on a packet engine.

:func:`run_scenario` maps the declarative plan onto
:class:`~repro.simulation.network.BCNNetworkSimulator` primitives —
``add_flow`` for arrivals and incast servers, ``schedule_capacity`` /
``schedule_outage`` / ``schedule_departure`` for the switch-side events —
runs the chosen engine, and harvests flow-completion times and the obs
distributions into a :class:`ScenarioResult`.

Scenario-layer observability events (``flow_start``, ``flow_finish``,
``link_down``, ``link_up``, ``capacity_change``) are emitted *here*, from
the declarative schedule and the harvested FCTs, never from inside an
engine: the schedule is known up front and identical for both engines,
so the conformance suite can require these event streams to match
exactly while the engine-emitted streams (``bcn``, ``pause_on``...) are
held to documented tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import FCT_SLOWDOWN_EDGES
from ..simulation.network import BCNNetworkSimulator, SimulationResult
from .events import (
    CapacityChange,
    FlowArrival,
    FlowDeparture,
    IncastBurst,
    LinkOutage,
    Scenario,
)

__all__ = ["FlowOutcome", "ScenarioResult", "run_scenario"]


@dataclass(frozen=True)
class FlowOutcome:
    """What happened to one finite dynamic flow."""

    address: int
    start_time: float
    size_bits: float
    demand: float
    finish_time: float | None

    @property
    def fct(self) -> float | None:
        """Send-side flow completion time (None if unfinished)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    @property
    def slowdown(self) -> float | None:
        """FCT over the ideal transfer time ``size / demand``."""
        fct = self.fct
        if fct is None:
            return None
        return fct / (self.size_bits / self.demand)


@dataclass
class ScenarioResult:
    """Everything a scenario run produced, for both test and analysis use."""

    scenario: Scenario
    engine: str
    sim: SimulationResult
    flows: list[FlowOutcome]
    #: Total bits emitted by every source (persistent + dynamic).
    injected_bits: float
    #: Bits sitting in the bottleneck queue (and in service) at the end.
    queued_bits_end: float
    #: Bits lost to drop-tail.
    dropped_bits: float
    #: ``∫ C(t) dt`` with outage windows excluded (utilisation denominator).
    capacity_integral: float

    @property
    def fcts(self) -> dict[int, float]:
        """Completed flows only: ``{address: fct}``."""
        return {
            f.address: f.fct for f in self.flows if f.finish_time is not None
        }

    @property
    def unfinished(self) -> list[int]:
        return [f.address for f in self.flows if f.finish_time is None]

    def utilization(self) -> float:
        """Delivered bits over the deliverable bits under ``C(t)``."""
        if self.capacity_integral <= 0:
            return 0.0
        return self.sim.delivered_bits / self.capacity_integral

    def conservation_error(self) -> float:
        """``injected - (delivered + queued + dropped)`` in bits.

        Exact up to in-flight slack: at the horizon each source can
        have one frame on its uplink and the switch one in service, so
        the property suite allows ``(n_sources + 2) * frame_bits``.
        """
        return self.injected_bits - (
            self.sim.delivered_bits + self.queued_bits_end + self.dropped_bits
        )


def _emit_schedule_events(obs, scenario: Scenario, engine_tag: str) -> None:
    """Emit the declarative schedule as obs events (engine-identical)."""
    for event in scenario.events:
        if event.t >= scenario.duration:
            continue
        if isinstance(event, CapacityChange):
            obs.event("capacity_change", event.t, engine=engine_tag,
                      node="core-0", value=event.capacity)
        elif isinstance(event, LinkOutage):
            obs.event("link_down", event.t, engine=engine_tag,
                      node="core-0", value=event.duration)
            obs.event("link_up", min(event.t + event.duration,
                                     scenario.duration),
                      engine=engine_tag, node="core-0")


def run_scenario(
    scenario: Scenario,
    *,
    engine: str = "reference",
    obs=None,
) -> ScenarioResult:
    """Run ``scenario`` on the chosen packet engine and harvest results."""
    net = BCNNetworkSimulator(
        scenario.params,
        frame_bits=scenario.frame_bits,
        engine=engine,
        enable_pause=scenario.enable_pause,
        obs=obs,
    )
    engine = net.engine  # the registered name (resolves synonyms)

    # Dynamic population first (declared before run in both engines),
    # then the switch-side timed events.
    dynamic: list[tuple[int, FlowArrival | IncastBurst, float, float]] = []
    for event in scenario.events:
        if isinstance(event, FlowArrival):
            source = net.add_flow(
                start_time=event.t,
                demand=event.demand,
                size_bits=event.size_bits,
            )
            if event.size_bits is not None:
                dynamic.append(
                    (source.address, event, event.size_bits, event.demand)
                )
        elif isinstance(event, IncastBurst):
            for _ in range(event.n_servers):
                source = net.add_flow(
                    start_time=event.t,
                    demand=event.demand,
                    size_bits=event.response_bits,
                )
                dynamic.append(
                    (source.address, event, event.response_bits, event.demand)
                )
        elif isinstance(event, FlowDeparture):
            net.schedule_departure(event.t, event.address)
        elif isinstance(event, LinkOutage):
            net.schedule_outage(event.t, event.duration)
        elif isinstance(event, CapacityChange):
            net.schedule_capacity(event.t, event.capacity)

    sim = net.run(scenario.duration)

    flows = [
        FlowOutcome(
            address=address,
            start_time=event.t,
            size_bits=size_bits,
            demand=demand,
            finish_time=net.sources[address].finish_time,
        )
        for address, event, size_bits, demand in dynamic
    ]

    if engine == "reference":
        queued_end = net.switch.queue_bits
    else:
        kernel = net._batched_kernel
        queued_end = float(kernel._backlog) * scenario.frame_bits + (
            scenario.frame_bits if kernel._inflight else 0.0
        )
    injected = float(sum(s.bits_sent for s in net.sources))
    dropped_bits = float(net.switch.queue.dropped_bits)

    handle = net.obs
    if handle is not None:
        engine_tag = f"packet.{engine}"
        _emit_schedule_events(handle, scenario, engine_tag)
        for flow in flows:
            if flow.start_time < scenario.duration:
                handle.event("flow_start", flow.start_time,
                             engine=engine_tag, flow=flow.address)
            if flow.finish_time is not None:
                handle.event("flow_finish", flow.finish_time,
                             engine=engine_tag, flow=flow.address,
                             value=flow.fct)
        slowdowns = [f.slowdown for f in flows if f.slowdown is not None]
        if slowdowns:
            handle.observe_array(f"fct_slowdown.{engine_tag}",
                                 np.asarray(slowdowns, dtype=float),
                                 FCT_SLOWDOWN_EDGES)

    return ScenarioResult(
        scenario=scenario,
        engine=engine,
        sim=sim,
        flows=flows,
        injected_bits=injected,
        queued_bits_end=float(queued_end),
        dropped_bits=dropped_bits,
        capacity_integral=scenario.capacity_integral(),
    )
