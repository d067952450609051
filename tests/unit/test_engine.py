"""Unit tests for the discrete-event kernel (repro.simulation.engine).

Behavioural tests get a fresh binary-heap :class:`Simulator` through
the ``sim`` fixture; lazy compaction and the window barrier get their
own classes.
"""

import math

import pytest

from repro.simulation.engine import _COMPACT_MIN_PENDING, Simulator


@pytest.fixture(params=["heap"])
def sim(request):
    return Simulator()


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute(self, sim):
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_nested_scheduling(self, sim):
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(1.0, lambda: fired.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 2.0)]

    def test_rejects_negative_delay(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(math.inf, lambda: None)

    def test_rejects_past_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)


class TestCancellation:
    def test_cancelled_event_skipped(self, sim):
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert sim.events_processed == 0

    def test_double_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()
        assert sim.events_processed == 0


class TestCompaction:
    """Cancelling most of the queue must shrink it, not leak (satellite:
    heap-leak fix)."""

    def test_mass_cancellation_compacts_queue(self, sim):
        n = 4 * _COMPACT_MIN_PENDING
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(n)]
        assert sim.pending == n
        # Cancel ~75% of the events: compaction should trigger once the
        # cancelled fraction crosses one half, so the store must not
        # retain all the dead entries.
        survivors = []
        for i, h in enumerate(handles):
            if i % 4 == 0:
                survivors.append(h)
            else:
                h.cancel()
        assert sim.pending < n // 2
        assert sim.pending >= len(survivors)
        sim.run()
        assert sim.events_processed == len(survivors)

    def test_small_queues_skip_compaction(self, sim):
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
        for h in handles:
            h.cancel()
        # Below _COMPACT_MIN_PENDING nothing compacts eagerly; the pops
        # still skip every cancelled event.
        sim.run()
        assert sim.events_processed == 0
        assert sim.pending == 0

    def test_compaction_preserves_order_and_results(self):
        sim = Simulator()
        fired = []
        n = 4 * _COMPACT_MIN_PENDING
        handles = [
            sim.schedule(float(i + 1) * 0.125, lambda i=i: fired.append(i))
            for i in range(n)
        ]
        for i, h in enumerate(handles):
            if i % 3:
                h.cancel()
        sim.run()
        assert fired == [i for i in range(n) if i % 3 == 0]

    def test_compaction_inside_a_running_callback(self):
        # A callback that cancels most of the queue compacts it while
        # run() is draining that same queue.
        sim = Simulator()
        fired = []
        n = 4 * _COMPACT_MIN_PENDING
        handles = [
            sim.schedule(float(i + 2), lambda i=i: fired.append(i))
            for i in range(n)
        ]

        def cancel_most():
            for i, h in enumerate(handles):
                if i % 4:
                    h.cancel()

        sim.schedule(1.0, cancel_most)
        sim.run()
        assert fired == [i for i in range(n) if i % 4 == 0]
        assert sim.pending == 0


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_max_events_cap(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_schedule_every_respects_until(self, sim):
        ticks = []
        sim.schedule_every(1.0, lambda: ticks.append(sim.now), until=3.5)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_schedule_every_rejects_nonpositive(self, sim):
        with pytest.raises(ValueError):
            sim.schedule_every(0.0, lambda: None)

    def test_reset(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending == 0
        assert sim.events_processed == 0
        # The kernel stays usable after a reset.
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]

    def test_determinism(self, sim):
        def run_once(s):
            out = []
            s.schedule_every(0.3, lambda: out.append(round(s.now, 9)),
                             until=2.0)
            s.schedule(0.9, lambda: out.append("mark"))
            s.run()
            return out

        first = run_once(sim)
        sim.reset()
        assert run_once(sim) == first


class TestWindowBarrier:
    """freeze_horizon / run_window: the conservative-parallel contract."""

    def test_run_window_processes_only_the_window(self, sim):
        fired = []
        for t in (0.01, 0.02, 0.03, 0.04):
            sim.schedule(t, lambda t=t: fired.append(t))
        n = sim.run_window(0.025)
        assert fired == [0.01, 0.02]
        assert n == 2
        assert sim.now == 0.025
        assert sim.freeze_horizon == math.inf  # restored afterwards

    def test_windowed_replay_matches_single_run(self, sim):
        def load(s):
            order = []
            for i, t in enumerate([0.005, 0.011, 0.011, 0.02, 0.033, 0.04]):
                s.schedule(t, lambda i=i: order.append(i))
            return order

        want_sim = Simulator()
        want = load(want_sim)
        want_sim.run(until=0.05)

        got = load(sim)
        edge = 0.0
        while edge < 0.05:
            edge = min(edge + 0.012, 0.05)
            sim.run_window(edge)
        assert got == want
        assert sim.now == 0.05

    def test_horizon_caps_reentrant_run(self, sim):
        fired = []
        sim.schedule(0.03, lambda: fired.append("late"))

        def greedy():
            fired.append("early")
            # A callback that tries to drag the clock past the barrier
            # must still be capped by the freeze horizon.
            sim.run(until=1.0)

        sim.schedule(0.01, greedy)
        sim.run_window(0.02)
        assert fired == ["early"]
        assert sim.now == 0.02
        sim.run_window(0.05)
        assert fired == ["early", "late"]

    def test_scheduling_beyond_horizon_waits(self, sim):
        fired = []
        sim.schedule(0.005, lambda: sim.schedule_at(0.03, lambda: fired.append("x")))
        sim.run_window(0.01)
        assert fired == []
        sim.run_window(0.04)
        assert fired == ["x"]

    def test_set_freeze_horizon_rejects_the_past(self, sim):
        sim.run_window(0.02)
        with pytest.raises(ValueError):
            sim.set_freeze_horizon(0.01)
        sim.clear_freeze_horizon()
        assert sim.freeze_horizon == math.inf

    def test_run_window_rejects_infinite_edge(self, sim):
        with pytest.raises(ValueError):
            sim.run_window(math.inf)

    def test_reset_clears_horizon(self, sim):
        sim.set_freeze_horizon(0.5)
        sim.reset()
        assert sim.freeze_horizon == math.inf
