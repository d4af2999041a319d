"""Argobots-sim: user-level threads, execution streams, and sync objects.

Mochi builds on `Argobots <https://www.argobots.org>`_ for lightweight
cooperative threading. This package reproduces the subset Colza relies
on, mapped onto the DES kernel:

- :class:`Xstream` — an execution stream bound to one core. Compute is
  charged explicitly (``yield from xs.compute(seconds)``) and
  serializes per xstream; *blocking waits do not hold the core*. This
  is the paper's key scheduling point: a ULT blocking on MoNA
  communication yields its core to other tasks, whereas a blocking MPI
  call spins (modeled by :meth:`Xstream.spin_wait`).
- :class:`Ult` — a user-level thread spawned on an xstream.
- :class:`Mutex`, :class:`Barrier` — the ABT synchronization objects
  used by SSG, the Colza admin and the framework baselines.
"""

from repro.argo.sync import Barrier, Mutex
from repro.argo.xstream import Ult, Xstream

__all__ = ["Barrier", "Mutex", "Ult", "Xstream"]
