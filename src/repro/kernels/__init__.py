"""Compiled hot-path kernels behind the ``engine="compiled"`` seam.

This package provides native implementations of the hottest paths the
``repro.obs`` span profiles identify — the packet window pacing
(per-source train planning, merging, commit and lag repayment), the
switch window (Lindley service hull + sigma sampling + PAUSE
truncation), the struct-of-arrays BCN message apply, and the batch
fluid RK4 stepper with cubic-Hermite event refinement (float64 and
float32) — compiled through whichever backend the environment offers:

* a **cffi**-built C translation of the shared scalar bodies in
  :mod:`repro.kernels._scalar` (any C compiler; install cffi via
  ``pip install repro[compiled]``);
* pure **numpy** — no compilation at all: the compiled engines run the
  existing numpy-vectorized batched code paths, which the scalar
  bodies mirror bit-for-bit.

Select explicitly with ``REPRO_KERNEL_BACKEND=auto|cffi|numpy``.
Engine selection is one flag everywhere: ``engine="compiled"`` on
:class:`~repro.simulation.network.BCNNetworkSimulator`, the scenario
runtime and the CLI; ``fluid_method="compiled"`` on
:func:`~repro.fluid.batch.simulate_fluid_batch`.
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
