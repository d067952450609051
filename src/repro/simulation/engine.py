"""Discrete-event simulation engines.

Two deterministic event kernels share one public API:

* :class:`Simulator` — the reference kernel: events are ``(time, seq,
  callback)`` triples in a binary heap; ties in time break by insertion
  order (``seq``), which keeps runs reproducible.
* :class:`CalendarSimulator` — a slotted calendar queue: the near
  horizon is an array of time buckets with O(1) amortised insert and
  pop (events land in ``floor(t / slot_width)`` buckets; the active
  bucket is drained in ``(time, seq)`` order), and events beyond the
  calendar horizon fall back to a binary heap that is drained into the
  buckets as the calendar advances.  Event ordering is identical to the
  reference kernel, so the two are interchangeable.

Components schedule callbacks with :meth:`Simulator.schedule` (relative
delay) or :meth:`Simulator.schedule_at` (absolute time) and may cancel
them via the returned handle.  Cancelled events are skipped lazily when
popped; when more than half of the pending events are cancelled the
queue compacts itself so long runs with heavy cancellation (rate
re-pacing, pause retries) do not leak memory.

The kernels know nothing about networking; switches, sources and links
(:mod:`repro.simulation`) are plain objects holding a reference to the
simulator.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "Simulator", "CalendarSimulator", "make_simulator"]

#: Compact the pending-event store once this fraction of it is cancelled.
_COMPACT_FRACTION = 0.5
#: ... but never bother below this many pending events.
_COMPACT_MIN_PENDING = 64


@dataclass(order=True)
class Event:
    """A scheduled callback; orderable by ``(time, seq)``."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: The simulator that owns this event (None for detached events);
    #: lets ``cancel`` feed the owner's lazy-compaction accounting.
    owner: "Simulator | None" = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancel()


class Simulator:
    """Deterministic discrete-event simulator (binary-heap kernel).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._cancelled_pending = 0
        self._freeze_horizon = math.inf

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still queued (cancelled ones may linger
        until the next pop or compaction)."""
        return self._queue_len()

    # -- window barrier ----------------------------------------------------

    @property
    def freeze_horizon(self) -> float:
        """Hard processing horizon for conservative window barriers.

        No event beyond the horizon is executed by :meth:`run`, even
        when a callback re-enters ``run`` with a later ``until`` — the
        guarantee a conservative parallel coordinator needs: between
        two barrier exchanges a shard can never outrun its lookahead.
        Scheduling beyond the horizon stays legal (events simply wait
        for a later window).  ``math.inf`` (the default) disables it.
        """
        return self._freeze_horizon

    def set_freeze_horizon(self, t: float) -> None:
        """Freeze event processing at ``t`` (see :attr:`freeze_horizon`)."""
        if t < self._now:
            raise ValueError(
                f"freeze horizon {t} lies before now {self._now}"
            )
        self._freeze_horizon = t

    def clear_freeze_horizon(self) -> None:
        """Remove the processing horizon."""
        self._freeze_horizon = math.inf

    def run_window(self, t_end: float) -> int:
        """Process one conservative window ``(now, t_end]`` and stop.

        Equivalent to ``run(until=t_end)`` under a freeze horizon at
        ``t_end``; the clock is left exactly at ``t_end`` and the
        number of callbacks executed is returned.  Calling it
        repeatedly with increasing ``t_end`` replays precisely the
        event sequence a single ``run`` over the union would have —
        the window barrier is invisible to the simulated system.
        """
        if not math.isfinite(t_end):
            raise ValueError("window end must be finite")
        before = self._processed
        previous = self._freeze_horizon
        self.set_freeze_horizon(t_end)
        try:
            self.run(until=t_end)
        finally:
            self._freeze_horizon = previous
        return self._processed - before

    # -- queue storage (overridden by CalendarSimulator) ------------------

    def _push(self, event: Event) -> None:
        heapq.heappush(self._heap, event)

    def _pop_min(self) -> Event:
        event = heapq.heappop(self._heap)
        if event.cancelled:
            self._cancelled_pending -= 1
        return event

    def _peek_min_time(self) -> float:
        return self._heap[0].time

    def _queue_len(self) -> int:
        return len(self._heap)

    def _clear(self) -> None:
        self._heap.clear()
        self._cancelled_pending = 0

    def _compact(self) -> None:
        """Drop cancelled events from the heap and re-heapify."""
        self._heap = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    # -- cancellation accounting ------------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled_pending += 1
        pending = self._queue_len()
        if (pending > _COMPACT_MIN_PENDING
                and self._cancelled_pending > _COMPACT_FRACTION * pending):
            self._compact()

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0 or not math.isfinite(delay):
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        event = Event(time, next(self._seq), callback, owner=self)
        self._push(event)
        return event

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        until: float = math.inf,
    ) -> None:
        """Run ``callback`` every ``interval`` seconds until ``until``."""
        if interval <= 0:
            raise ValueError("interval must be positive")

        def tick() -> None:
            callback()
            next_time = self._now + interval
            if next_time <= until:
                self.schedule_at(next_time, tick)

        self.schedule(interval, tick)

    def run(self, until: float = math.inf, *, max_events: int | None = None) -> None:
        """Process events in order until the horizon or queue exhaustion.

        Parameters
        ----------
        until:
            Stop once the next event would occur after this time; the
            clock is advanced to ``until`` if any later events remain.
        max_events:
            Safety cap on callbacks executed in this call.
        """
        until = min(until, self._freeze_horizon)
        executed = 0
        while self._queue_len():
            if max_events is not None and executed >= max_events:
                break
            if self._peek_min_time() > until:
                self._now = until
                return
            event = self._pop_min()
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            self._processed += 1
            executed += 1
        if math.isfinite(until):
            self._now = max(self._now, until)

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._clear()
        self._now = 0.0
        self._processed = 0
        self._freeze_horizon = math.inf


class CalendarSimulator(Simulator):
    """Calendar-queue event kernel: slotted near horizon, heap far tail.

    The calendar covers ``n_slots * slot_width`` seconds from
    ``_horizon_start``; an event at time ``t`` within the horizon lands
    in bucket ``floor((t - _horizon_start) / slot_width)`` with an O(1)
    append.  The active bucket is heapified on first touch so events
    drain in exact ``(time, seq)`` order — the total order is identical
    to :class:`Simulator`'s.  Events beyond the horizon go to an
    overflow heap and migrate into the buckets whenever the calendar
    rolls forward one horizon length.

    Parameters
    ----------
    slot_width:
        Bucket width in seconds.  Pick it near the typical event
        spacing (e.g. one frame service time for a packet simulation);
        a poor choice degrades gracefully to heap-like behaviour.
        When omitted (``None``) the width is derived from
        ``quantum_hint`` when given — ``quantum_hint / 64``, so one
        control window spans ~64 buckets instead of collapsing into a
        single bucket — and falls back to the legacy ``1e-6`` default
        otherwise.
    n_slots:
        Number of buckets per horizon.
    quantum_hint:
        Optional control-quantum (window length) hint used to
        auto-derive ``slot_width``; ignored when ``slot_width`` is
        passed explicitly.
    """

    #: Buckets per control quantum when auto-deriving the slot width.
    _SLOTS_PER_QUANTUM = 64
    #: Legacy default bucket width when no hint is available.
    _DEFAULT_SLOT_WIDTH = 1e-6

    def __init__(
        self,
        *,
        slot_width: float | None = None,
        n_slots: int = 1024,
        quantum_hint: float | None = None,
    ) -> None:
        if slot_width is None:
            if quantum_hint is not None and quantum_hint > 0 \
                    and math.isfinite(quantum_hint):
                slot_width = quantum_hint / self._SLOTS_PER_QUANTUM
            else:
                slot_width = self._DEFAULT_SLOT_WIDTH
        if slot_width <= 0 or not math.isfinite(slot_width):
            raise ValueError("slot_width must be positive and finite")
        if n_slots < 2:
            raise ValueError("need at least 2 slots")
        super().__init__()
        self._slot_width = slot_width
        self._n_slots = n_slots
        self._horizon = slot_width * n_slots
        self._horizon_start = 0.0
        self._slots: list[list[Event]] = [[] for _ in range(n_slots)]
        self._cursor = 0  # index of the active bucket
        self._active_is_heap = False
        self._overflow: list[Event] = []
        self._size = 0

    # -- queue storage ----------------------------------------------------

    def _push(self, event: Event) -> None:
        offset = event.time - self._horizon_start
        if offset < self._horizon:
            idx = int(offset / self._slot_width)
            if idx >= self._n_slots:  # float edge: t == horizon end
                idx = self._n_slots - 1
            if idx < self._cursor:
                # schedule_at guarantees t >= now, so the event belongs
                # to the active bucket's time range at the earliest.
                idx = self._cursor
            if idx == self._cursor and self._active_is_heap:
                heapq.heappush(self._slots[idx], event)
            else:
                self._slots[idx].append(event)
        else:
            heapq.heappush(self._overflow, event)
        self._size += 1

    def _advance_to_nonempty(self) -> bool:
        """Move the cursor to the earliest non-empty bucket.

        Returns False when no events remain anywhere.
        """
        while True:
            slots = self._slots
            n = self._n_slots
            while self._cursor < n:
                bucket = slots[self._cursor]
                if bucket:
                    if not self._active_is_heap:
                        heapq.heapify(bucket)
                        self._active_is_heap = True
                    return True
                self._cursor += 1
                self._active_is_heap = False
            # Calendar exhausted: roll the horizon forward and refill
            # from the overflow heap.
            if not self._overflow:
                return False
            next_time = self._overflow[0].time
            periods = max(1, int((next_time - self._horizon_start)
                                 / self._horizon))
            self._horizon_start += periods * self._horizon
            self._cursor = 0
            self._active_is_heap = False
            horizon_end = self._horizon_start + self._horizon
            overflow = self._overflow
            while overflow and overflow[0].time < horizon_end:
                event = heapq.heappop(overflow)
                idx = int((event.time - self._horizon_start)
                          / self._slot_width)
                if idx >= n:  # float edge
                    idx = n - 1
                slots[idx].append(event)

    def _pop_min(self) -> Event:
        if not self._advance_to_nonempty():  # pragma: no cover - guarded
            raise IndexError("pop from empty calendar")
        event = heapq.heappop(self._slots[self._cursor])
        self._size -= 1
        if event.cancelled:
            self._cancelled_pending -= 1
        return event

    def _peek_min_time(self) -> float:
        if not self._advance_to_nonempty():  # pragma: no cover - guarded
            raise IndexError("peek on empty calendar")
        return self._slots[self._cursor][0].time

    def _queue_len(self) -> int:
        return self._size

    def _clear(self) -> None:
        self._slots = [[] for _ in range(self._n_slots)]
        self._overflow = []
        self._cursor = 0
        self._active_is_heap = False
        self._horizon_start = 0.0
        self._size = 0
        self._cancelled_pending = 0

    def _compact(self) -> None:
        """Drop cancelled events from every bucket and the overflow."""
        removed = 0
        for idx, bucket in enumerate(self._slots):
            if not bucket:
                continue
            kept = [e for e in bucket if not e.cancelled]
            removed += len(bucket) - len(kept)
            if idx == self._cursor and self._active_is_heap:
                heapq.heapify(kept)
            self._slots[idx] = kept
        kept_overflow = [e for e in self._overflow if not e.cancelled]
        removed += len(self._overflow) - len(kept_overflow)
        heapq.heapify(kept_overflow)
        self._overflow = kept_overflow
        self._size -= removed
        self._cancelled_pending = 0


def make_simulator(
    kernel: str = "heap",
    *,
    slot_width: float | None = None,
    n_slots: int = 1024,
    quantum_hint: float | None = None,
) -> Simulator:
    """Build an event kernel by name.

    ``"heap"`` is the binary-heap reference kernel and ``"calendar"``
    the calendar queue; both fire events in the same order.
    ``slot_width=None`` lets the calendar derive its bucket width from
    ``quantum_hint`` (see :class:`CalendarSimulator`).
    """
    if kernel == "heap":
        return Simulator()
    if kernel == "calendar":
        return CalendarSimulator(slot_width=slot_width, n_slots=n_slots,
                                 quantum_hint=quantum_hint)
    raise ValueError(f"unknown event kernel {kernel!r}")


def noop() -> None:  # pragma: no cover - convenience for tests
    """A callback that does nothing."""
