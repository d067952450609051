"""Compiled hot-path kernels, picked by the platform.

This package provides native implementations of the hottest paths the
``repro.obs`` span profiles identify — the packet window pacing
(per-source train planning, merging, commit and lag repayment), the
switch window (Lindley service hull + sigma sampling + PAUSE
truncation), the struct-of-arrays BCN message apply, and the batch
fluid RK4 stepper with cubic-Hermite event refinement — compiled
through whichever backend the environment offers:

* a **cffi**-built C translation of the shared scalar bodies in
  :mod:`repro.kernels._scalar` (any C compiler; install cffi via
  ``pip install repro[compiled]``);
* pure **numpy** — no compilation at all: the engines run their
  numpy-vectorized code paths, which the scalar bodies mirror
  bit-for-bit.

Callers never choose a tier.  The batched packet engine
(:class:`~repro.simulation.network.BCNNetworkSimulator`,
``engine="batched"``) and :func:`~repro.fluid.batch.simulate_fluid_batch`
ask :func:`get_backend` and run the compiled kernels whenever it
reports ``compiled``.  ``REPRO_KERNEL_BACKEND=auto|cffi|numpy`` pins the
tier for a whole process (tests and benchmarks use ``numpy`` to time
and check the fallback).
"""

from ._backend import (KernelBackend, consume_warmup_span, get_backend,
                       reset_backend)
from .fluid import simulate_fluid_batch_compiled
from .packet import CompiledSwitchKernel

__all__ = [
    "CompiledSwitchKernel",
    "KernelBackend",
    "consume_warmup_span",
    "get_backend",
    "reset_backend",
    "simulate_fluid_batch_compiled",
]
