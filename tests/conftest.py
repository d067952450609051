"""Fixtures shared by the unit, integration and property suites."""

import contextlib

import pytest

from repro.kernels import KernelBackend, _backend


@pytest.fixture
def numpy_tier(monkeypatch):
    """A context manager that runs its body on the pure-numpy kernel tier.

    Engines ask :func:`repro.kernels.get_backend` for the tier when they
    run, so a run inside the block takes the numpy ops and a run outside
    it takes whatever the platform offers: the two tiers of one engine,
    side by side in one test.
    """

    @contextlib.contextmanager
    def pinned():
        with monkeypatch.context() as m:
            m.setattr(_backend, "_BACKEND", KernelBackend())
            yield

    return pinned
