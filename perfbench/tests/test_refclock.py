"""The reference clock: wall time when stopped, wall time over the
measured slowdown while running, and a clean hand-back of SIGALRM."""

import signal
import time

import pytest

import refclock


class _FixedSlowdown(refclock.RefClock):
    """A clock whose every speed sample reports the same slowdown."""

    def __init__(self, slowdown):
        super().__init__()
        self.fixed = slowdown

    def _sample(self):
        self.samples += 1
        return time.perf_counter(), self.fixed


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_stopped_clock_reads_wall_time():
    clock = refclock.RefClock()
    before = time.perf_counter()
    reading = clock.now()
    assert before <= reading <= time.perf_counter()


def test_running_clock_divides_wall_time_by_the_slowdown():
    clock = _FixedSlowdown(2.0)
    with clock.running():
        wall0, ref0 = time.perf_counter(), clock.now()
        _busy(0.2)
        ref, wall = clock.now() - ref0, time.perf_counter() - wall0
    assert clock.samples > 5           # the handler ticked meanwhile
    assert ref == pytest.approx(wall / 2.0, rel=1e-3)


def test_running_clock_is_monotonic_across_ticks():
    clock = refclock.RefClock()
    with clock.running():
        readings = []
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            readings.append(clock.now())
    assert clock.samples > refclock.WINDOW
    assert all(b >= a for a, b in zip(readings, readings[1:]))


def test_stop_hands_back_the_previous_handler_and_timer():
    previous = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock()
    with clock.running():
        assert signal.getsignal(signal.SIGALRM) == clock._tick
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
