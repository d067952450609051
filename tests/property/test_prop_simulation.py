"""Property-based tests for the DES substrate.

Conservation and ordering invariants that must hold for any workload:
frames in = frames out + dropped + resident; FIFO order preserved;
the event engine never runs time backwards and fires callbacks in
``(time, insertion)`` order however it is driven; regulators stay in
bounds.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import Simulator
from repro.simulation.frames import BCNMessage, EthernetFrame
from repro.simulation.queueing import DropTailQueue
from repro.simulation.source import RateRegulator
from repro.simulation.switch import CoreSwitch

frame_sizes = st.lists(st.integers(min_value=512, max_value=18000),
                       min_size=1, max_size=60)


@given(sizes=frame_sizes, capacity=st.integers(min_value=4000, max_value=60000))
@settings(max_examples=100, deadline=None)
def test_drop_tail_conservation(sizes, capacity):
    q = DropTailQueue(float(capacity))
    polls = 0
    for i, size in enumerate(sizes):
        q.offer(EthernetFrame(src=0, dst="sink", size_bits=size, flow_id=0))
        if i % 3 == 2:
            if q.poll() is not None:
                polls += 1
    assert q.conservation_holds()
    assert q.enqueued_frames == polls + len(q) + 0
    assert q.enqueued_frames + q.dropped_frames == len(sizes)
    assert q.occupancy_bits <= capacity


@given(sizes=frame_sizes)
@settings(max_examples=100, deadline=None)
def test_queue_fifo_order(sizes):
    q = DropTailQueue(1e12)
    for i, size in enumerate(sizes):
        q.offer(EthernetFrame(src=i, dst="sink", size_bits=size, flow_id=i))
    out = []
    while (f := q.poll()) is not None:
        out.append(f.src)
    assert out == sorted(out)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                       min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_engine_time_monotone(delays):
    sim = Simulator()
    seen = []
    for d in delays:
        sim.schedule(d, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


# -- kernel contract over random schedules ------------------------------------
#
# A schedule is a list of items, installed on a fresh Simulator in order:
# ``("node", (how, t, children))`` schedules a one-shot callback ``t``
# seconds from now (``how`` picks ``schedule`` or ``schedule_at``); when
# it fires it logs itself and schedules its children the same way.
# ``("every", interval, until)`` installs ``schedule_every``.  Times come
# from a quarter-second grid so ties are common and the arithmetic is
# exact.  The expected firing order comes from a linear-scan model, not
# a heap.

GRID = [0.25 * i for i in range(9)]


def _node(depth):
    children = (st.just(()) if depth == 0
                else st.lists(_node(depth - 1), max_size=3).map(tuple))
    return st.tuples(st.sampled_from(("rel", "abs")), st.sampled_from(GRID),
                     children)


schedules = st.lists(
    st.one_of(
        st.tuples(st.just("node"), _node(2)),
        st.tuples(st.just("every"), st.sampled_from(GRID[1:]),
                  st.sampled_from(GRID)),
    ),
    max_size=6,
)


def _install(sim, items, log):
    def push(node, label):
        how, t, children = node

        def fire():
            log.append((label, sim.now))
            for j, child in enumerate(children):
                push(child, label + (j,))

        if how == "rel":
            sim.schedule(t, fire)
        else:
            sim.schedule_at(sim.now + t, fire)

    for i, item in enumerate(items):
        if item[0] == "node":
            push(item[1], (i,))
        else:
            sim.schedule_every(
                item[1], lambda i=i: log.append(((i,), sim.now)),
                until=item[2],
            )


def _expected(items):
    """``(label, time)`` in firing order: repeatedly take the pending
    entry with the least ``(time, insertion)`` key."""
    seq = itertools.count()
    pending = []
    for i, item in enumerate(items):
        if item[0] == "node":
            pending.append((item[1][1], next(seq), (i,), item))
        else:
            pending.append((item[1], next(seq), (i,), item))
    log = []
    while pending:
        entry = min(pending, key=lambda e: e[:2])
        pending.remove(entry)
        now, _, label, item = entry
        log.append((label, now))
        if item[0] == "node":
            for j, child in enumerate(item[1][2]):
                pending.append((now + child[1], next(seq), label + (j,),
                                ("node", child)))
        elif now + item[1] <= item[2]:
            pending.append((now + item[1], next(seq), label, item))
    return log


def _loaded(items):
    sim = Simulator()
    log = []
    _install(sim, items, log)
    return sim, log


@given(items=schedules)
@settings(max_examples=150, deadline=None)
def test_callbacks_fire_in_time_then_insertion_order(items):
    sim, log = _loaded(items)
    sim.run()
    want = _expected(items)
    assert log == want
    assert sim.events_processed == len(want)
    assert sim.pending == 0
    assert sim.now == (want[-1][1] if want else 0.0)


@given(items=schedules,
       cuts=st.lists(st.sampled_from(GRID + [2.5, 3.0, 4.0]), max_size=6))
@settings(max_examples=150, deadline=None)
def test_windowed_replay_matches_one_run(items, cuts):
    want = _expected(items)
    sim, log = _loaded(items)
    previous = -1.0
    for edge in sorted(set(cuts)):
        executed = sim.run_window(edge)
        assert executed == sum(previous < t <= edge for _, t in want)
        assert sim.now == edge
        assert sim.events_processed == len(log)
        previous = edge
    sim.run()
    assert log == want
    assert sim.events_processed == len(want)


@given(items=schedules, until=st.sampled_from(GRID + [3.0, 5.0]),
       max_events=st.integers(min_value=0, max_value=40))
@settings(max_examples=150, deadline=None)
def test_stops_leave_the_clock_and_count_consistent(items, until,
                                                    max_events):
    want = _expected(items)

    sim, log = _loaded(items)
    sim.run(until=until)
    prefix = [e for e in want if e[1] <= until]
    assert log == prefix
    assert sim.events_processed == len(prefix)
    assert sim.now == until
    sim.run()
    assert log == want

    sim, log = _loaded(items)
    sim.run(max_events=max_events)
    fired = min(max_events, len(want))
    assert log == want[:fired]
    assert sim.events_processed == fired
    assert sim.now == (want[fired - 1][1] if fired else 0.0)
    sim.run()
    assert log == want
    assert sim.events_processed == len(want)


@given(
    fbs=st.lists(st.floats(min_value=-64.0, max_value=63.0), min_size=1,
                 max_size=50),
)
@settings(max_examples=100, deadline=None)
def test_regulator_rate_stays_in_bounds(fbs):
    reg = RateRegulator(gi=4.0, gd=1 / 128, ru=8e6, initial_rate=1e8,
                        min_rate=1e6, line_rate=1e9)
    for fb in fbs:
        reg.apply(BCNMessage(da=0, sa="s", cpid="s", fb=fb, q_off=0.0,
                             q_delta=0.0, fb_raw=fb))
        assert 1e6 <= reg.rate <= 1e9
    assert reg.updates_applied == len(fbs)


@given(
    n_frames=st.integers(min_value=1, max_value=120),
    pm=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_switch_conserves_frames(n_frames, pm):
    sim = Simulator()
    forwarded = []
    switch = CoreSwitch(sim, cpid="c", capacity=1e6, q0=50000.0,
                        buffer_bits=200000.0, pm=pm,
                        forward=forwarded.append)
    for i in range(n_frames):
        switch.receive(EthernetFrame(src=0, dst="sink", size_bits=12000,
                                     flow_id=0))
    sim.run()
    dropped = switch.queue.dropped_frames
    assert len(forwarded) + dropped == n_frames
    assert switch.queue.is_empty
    # deterministic sampling fires floor-ish n_frames * pm times
    if pm < 1.0:
        assert switch.stats.samples <= n_frames
