"""Static sharding plan: ownership, channels and the safe window.

:func:`build_plan` turns (topology, flows, partition) into the
immutable :class:`ShardPlan` every shard worker receives.  The plan
fixes, independently of worker count:

* **routes** — the same deterministic ECMP selection the serial
  :class:`~repro.simulation.multihop.MultiHopNetwork` makes;
* **port ownership** — the directed output port ``(u, v)`` lives in the
  shard owning ``u`` (the transmitting node);
* **source ownership** — a flow's source/regulator lives in the shard
  owning its first route node (the host);
* **lookahead** — the conservative synchronization window.  Every
  cross-shard interaction (frame forwarding, BCN feedback, PAUSE)
  travels over a link of at least one propagation delay, so a shard
  simulating ``(T, T + delay]`` cannot be affected by anything a peer
  does inside the same window — the Chandy–Misra null-message bound
  realised as a fixed barrier cadence.  When the partition cuts no
  channel the lookahead is infinite and the run needs a single window.

The plan must be picklable: it is shipped once to each worker of the
:class:`~repro.runner.pool.PersistentWorkerPool` and stepped thousands
of times in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import networkx as nx

from ..simulation.multihop import PortConfig
from ..topology.partition import Partition, partition_graph
from ..topology.routing import ecmp_route, route_edges
from ..workloads.flows import FlowSpec

__all__ = ["ShardPlan", "build_plan", "resolve_shards"]

Edge = tuple[str, str]


def resolve_shards(shards: int | str, graph: nx.Graph,
                   workers: int | None) -> int:
    """Effective shard count for a ``shards=`` seam value.

    ``"auto"`` picks one shard per effective worker
    (:func:`~repro.runner.parallel.resolve_workers` semantics), capped
    by the number of non-host nodes so no shard is guaranteed empty of
    switching capacity.  Integers pass through validated.
    """
    from ..runner.parallel import resolve_workers

    n_switches = sum(
        1 for _, data in graph.nodes(data=True) if data.get("kind") != "host"
    )
    if shards == "auto":
        return max(1, min(resolve_workers(workers) or 1, max(1, n_switches)))
    if isinstance(shards, bool) or not isinstance(shards, int):
        raise ValueError(f"shards must be an int or 'auto', got {shards!r}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return shards


@dataclass(frozen=True)
class ShardPlan:
    """Everything a shard worker needs to build and step its region."""

    graph: nx.Graph
    flows: tuple[FlowSpec, ...]
    routes: dict[int, tuple[str, ...]]
    config: PortConfig
    partition: Partition
    frame_bits: int
    delay: float
    hop_level_pause: bool
    queue_dt: float
    #: Directed in-fabric port edges, in first-traversal order (the
    #: serial network's instantiation order).
    port_edges: tuple[Edge, ...]
    port_owner: dict[Edge, int] = field(repr=False)
    source_owner: dict[int, int] = field(repr=False)
    #: Minimum latency of any cross-shard channel (`inf` = no channel).
    lookahead: float = math.inf

    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    def window_edges(self, duration: float) -> list[float]:
        """Barrier times for a run of ``duration`` seconds.

        Monotonically increasing, ending exactly at ``duration``; one
        entry per conservative window.  Computed by multiplication
        (``k * lookahead``), not accumulation, so boundary ``k`` is the
        same float in every shard and every worker layout.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not math.isfinite(self.lookahead):
            return [duration]
        n_windows = max(1, math.ceil(duration / self.lookahead - 1e-9))
        edges = [
            min((k + 1) * self.lookahead, duration) for k in range(n_windows)
        ]
        edges[-1] = duration
        return edges

    def events_for_shard(
        self, shard: int,
        timed_events: list[tuple[float, int, str, tuple]],
    ) -> list[tuple[float, int, str, tuple]]:
        """The subset of declarative timed events this shard applies.

        Global (``port=None``) outages go to every shard; port events
        to the port's owner; departures to the source's owner.  The
        global registration sequence number rides along so ties at one
        timestamp fire in registration order inside each shard.
        """
        mine = []
        for t, seq, kind, payload in timed_events:
            if kind == "capacity":
                owner = self.port_owner[payload[0]]
            elif kind == "outage":
                port = payload[1]
                owner = shard if port is None else self.port_owner[port]
            elif kind == "departure":
                owner = self.source_owner[payload[0]]
            else:
                raise ValueError(f"unknown timed event kind {kind!r}")
            if owner == shard:
                mine.append((t, seq, kind, payload))
        return mine


def build_plan(
    graph: nx.Graph,
    flows: list[FlowSpec],
    config: PortConfig,
    *,
    n_shards: int,
    frame_bits: int,
    delay: float,
    hop_level_pause: bool,
    queue_dt: float,
    partition: Partition | None = None,
    routes: dict[int, list[str]] | None = None,
) -> ShardPlan:
    """Build the sharding plan for one fabric workload.

    ``partition`` defaults to :func:`~repro.topology.partition_graph`
    over the full node set; pass one explicitly to pin shard
    boundaries (it is validated against the graph).  ``routes`` may
    carry the serial network's already-computed ECMP selection.
    """
    if not flows:
        raise ValueError("need at least one flow")
    if partition is None:
        partition = partition_graph(graph, n_shards)
    else:
        if partition.n_shards != n_shards:
            raise ValueError(
                f"partition has {partition.n_shards} shards, expected {n_shards}"
            )
        partition.validate(graph)

    resolved_routes: dict[int, tuple[str, ...]] = {}
    for spec in flows:
        if routes is not None and spec.flow_id in routes:
            route = tuple(routes[spec.flow_id])
        elif spec.route is not None:
            route = tuple(spec.route)
        else:
            route = tuple(ecmp_route(graph, spec.src, spec.dst, spec.flow_id))
        resolved_routes[spec.flow_id] = route

    assignment = partition.assignment
    port_edges: list[Edge] = []
    port_owner: dict[Edge, int] = {}
    for spec in flows:
        route = resolved_routes[spec.flow_id]
        for u, v in route_edges(list(route)):
            if u == route[0]:
                continue  # host NIC: pacing models the first hop
            if (u, v) not in port_owner:
                port_owner[(u, v)] = assignment[u]
                port_edges.append((u, v))

    source_owner = {
        spec.flow_id: assignment[resolved_routes[spec.flow_id][0]]
        for spec in flows
    }

    lookahead = _min_cross_latency(
        flows, resolved_routes, port_owner, source_owner,
        hop_level_pause, delay,
    )
    if lookahead <= 0:
        raise ValueError(
            "sharded execution needs a positive propagation delay: every "
            "cross-shard channel's latency bounds the conservative window"
        )

    return ShardPlan(
        graph=graph,
        flows=tuple(flows),
        routes=resolved_routes,
        config=config,
        partition=partition,
        frame_bits=frame_bits,
        delay=delay,
        hop_level_pause=hop_level_pause,
        queue_dt=queue_dt,
        port_edges=tuple(port_edges),
        port_owner=port_owner,
        source_owner=source_owner,
        lookahead=lookahead,
    )


def _min_cross_latency(
    flows: tuple[FlowSpec, ...] | list[FlowSpec],
    routes: dict[int, tuple[str, ...]],
    port_owner: dict[Edge, int],
    source_owner: dict[int, int],
    hop_level_pause: bool,
    delay: float,
) -> float:
    """Minimum latency over every channel that crosses a shard boundary.

    Channels mirror the serial network's wiring exactly: the source
    uplink and hop-by-hop forwarding (one ``delay``), BCN backward
    links (``delay * (hop + 1)``) and PAUSE links (one ``delay``).
    Returns ``inf`` when the partition cuts nothing.
    """
    lookahead = math.inf
    for spec in flows:
        route = routes[spec.flow_id]
        src_shard = source_owner[spec.flow_id]
        edges = route_edges(list(route))
        on_route = [e for e in edges if e in port_owner]
        # source uplink -> entry port
        if len(edges) >= 2 and port_owner[edges[1]] != src_shard:
            lookahead = min(lookahead, delay)
        # hop-by-hop frame forwarding
        for prev_edge, next_edge in zip(on_route, on_route[1:]):
            if port_owner[prev_edge] != port_owner[next_edge]:
                lookahead = min(lookahead, delay)
        # BCN backward links (and source-directed PAUSE reuses them)
        for i, edge in enumerate(edges):
            if edge in port_owner and port_owner[edge] != src_shard:
                lookahead = min(lookahead, delay * (i + 1))
        # hop-level PAUSE: first port -> source NIC, then downstream ->
        # upstream along the route
        if hop_level_pause and on_route:
            if port_owner[on_route[0]] != src_shard:
                lookahead = min(lookahead, delay)
            for upstream, downstream in zip(on_route, on_route[1:]):
                if port_owner[downstream] != port_owner[upstream]:
                    lookahead = min(lookahead, delay)
    return lookahead
