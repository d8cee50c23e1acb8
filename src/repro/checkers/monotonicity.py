"""Engine-level time sanity: the clock only moves forward.

The invariant is checked by the engine kernels themselves, on every
kernel and at no extra hook cost (see :mod:`repro.engine.core`):

* every heap pop verifies that the popped entry does not lie in the
  past and that its ``(time, seq)`` key sits strictly below the new
  heap root -- the heap never yields a duplicate or reordered step,
* the heap push entry points refuse an action scheduled into the past.

A violation raises :class:`~repro.errors.InvariantError` under this
checker's name from inside the run loop.  The checker itself installs
no hooks -- so it never forces the object kernel -- and only reports:
at the end of the run it records how many events the kernel checked
and that simulated time is not negative.
"""

from __future__ import annotations

from .base import Checker


class MonotonicityChecker(Checker):
    """Reports the kernels' per-pop event-order checks."""

    name = "monotonicity"

    def finalize(self, machine) -> None:
        sim = machine.sim
        self.checks = sim.events_executed
        if sim.now < 0:
            self.violation(sim.now, f"negative simulated time {sim.now}")
