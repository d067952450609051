"""Structured trace records and a stable JSONL export format.

Every engine emits the same event vocabulary (:data:`EVENT_KINDS`), so
traces from the reference fluid integrator, the batch kernel and both
packet engines are directly comparable — the basis of the cross-engine
conformance suite.

The on-disk format is JSON Lines: a header object carrying
``schema_version`` followed by one object per event.  Fields that are
``None`` are omitted from the serialised record; :func:`read_trace`
restores them, so write→read is a lossless round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "TraceRecord",
    "TraceSink",
    "write_trace",
    "read_trace",
]

#: Bump when a field is renamed/removed or a kind changes meaning.
SCHEMA_VERSION = 1

#: The shared cross-engine event vocabulary.
EVENT_KINDS = frozenset({
    "region_switch",   # switching-line crossing (sigma changes sign)
    "pause_on",        # PAUSE excursion starts
    "pause_off",       # PAUSE excursion ends / expires
    "bcn",             # BCN message emitted (value = fb sign or fb)
    "drop",            # frame dropped at a full queue
    "buffer_full",     # queue pinned at the physical buffer
    "buffer_empty",    # queue pinned at zero
    "extremum",        # trajectory extremum (fluid return map)
    "converged",       # trajectory met the convergence criterion
    "arrive",          # frame enqueued (reserved; no engine emits it)
    "depart",          # frame serviced (reserved; no engine emits it)
    # Scenario-layer events (additive in schema v1): the declarative
    # schedule is known up front, so repro.scenarios emits these
    # identically for both packet engines.
    "flow_start",      # a dynamic flow begins sending
    "flow_finish",     # a finite flow sent its last frame (value = FCT)
    "link_down",       # outage begins (value = outage duration)
    "link_up",         # outage ends
    "capacity_change",  # C(t) transition (value = new capacity)
    # Job-server lifecycle events (additive in schema v1): emitted by
    # repro.serve with engine="serve" and node=<job key>, streamed live
    # to subscribed clients as the per-job JSONL progress sink.  ``t``
    # is seconds since the job was accepted (monotonic delta — the
    # serve layer has no simulated clock of its own).
    "job_queued",      # job accepted and queued (value = queue depth)
    "job_started",     # execution began (value = attempt number)
    "job_progress",    # one work unit finished (value = units done)
    "job_finished",    # terminal success (value = compute wall seconds)
    "job_failed",      # terminal failure (detail = error text)
    "job_retried",     # attempt failed, job re-queued for another try
})


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace event.

    ``t`` is simulation time in seconds.  ``engine`` identifies the
    producer (``"fluid.reference"``, ``"fluid.batch"``,
    ``"packet.reference"``, ``"packet.batched"``, ``"runner"``);
    ``node`` the emitting component (a switch cpid, a port label);
    ``row`` the batch row index for vectorised engines; ``flow`` a flow
    id; ``value`` a kind-specific scalar (feedback value, queue level,
    pause duration); ``detail`` free-form text.
    """

    kind: str
    t: float
    engine: str = ""
    node: str | None = None
    row: int | None = None
    flow: int | None = None
    value: float | None = None
    detail: str = ""

    def to_json_obj(self) -> dict:
        obj: dict = {"t": self.t, "kind": self.kind}
        if self.engine:
            obj["engine"] = self.engine
        for key in ("node", "row", "flow", "value"):
            val = getattr(self, key)
            if val is not None:
                obj[key] = val
        if self.detail:
            obj["detail"] = self.detail
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TraceRecord":
        return cls(
            kind=obj["kind"],
            t=float(obj["t"]),
            engine=obj.get("engine", ""),
            node=obj.get("node"),
            row=obj.get("row"),
            flow=obj.get("flow"),
            value=obj.get("value"),
            detail=obj.get("detail", ""),
        )


@dataclass
class TraceSink:
    """In-memory event log with an optional size cap.

    Once ``max_records`` is reached further records are counted in
    ``truncated`` but not stored, so long runs cannot exhaust memory
    while event *counts* (kept in the metrics registry, not here) stay
    exact.
    """

    records: list[TraceRecord] = field(default_factory=list)
    max_records: int | None = None
    truncated: int = 0

    def append(self, record: TraceRecord) -> None:
        if (self.max_records is not None
                and len(self.records) >= self.max_records):
            self.truncated += 1
            return
        self.records.append(record)

    def extend(self, records: Iterable[TraceRecord]) -> None:
        for record in records:
            self.append(record)

    def of_kind(self, kind: str) -> list[TraceRecord]:
        return [r for r in self.records if r.kind == kind]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out

    def sorted_records(self) -> list[TraceRecord]:
        """Records ordered by time (stable for simultaneous events)."""
        return sorted(self.records, key=lambda r: r.t)


def write_trace(path: str | Path, records: Iterable[TraceRecord],
                *, meta: dict | None = None) -> Path:
    """Write a JSONL trace: header line, then one event per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {"schema_version": SCHEMA_VERSION}
    if meta:
        header.update(meta)
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for record in records:
            fh.write(json.dumps(record.to_json_obj()) + "\n")
    return path


def read_trace(path: str | Path) -> tuple[dict, list[TraceRecord]]:
    """Read a JSONL trace back as ``(header, records)``.

    Raises :class:`ValueError` on a missing header or an unsupported
    ``schema_version``.
    """
    path = Path(path)
    with path.open() as fh:
        lines: Iterator[str] = iter(fh)
        try:
            header = json.loads(next(lines))
        except StopIteration:
            raise ValueError(f"{path}: empty trace file") from None
        version = header.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"{path}: unsupported trace schema_version {version!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        records = [TraceRecord.from_json_obj(json.loads(line))
                   for line in lines if line.strip()]
    return header, records
