"""FIFO resources with finite capacity.

A :class:`Resource` models a piece of hardware that at most ``capacity``
processes may hold at once -- a unidirectional network link
(``capacity=1``), or a directory entry's request serialization point.
Requests are granted strictly in arrival order, which both matches how
a circuit-switched link arbitrates and keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from ..errors import SimulationError
from .core import PROC_BITS, PROC_MASK, Acquirable, Event, Simulator


class Resource(Acquirable):
    """A counted FIFO resource.

    Usage from a process generator::

        grant = link.request()
        yield grant
        ...  # hold the link
        link.release()

    or simply ``yield link`` -- the engine kernel resolves the grant
    (immediately when free, FIFO-queued when busy) without allocating a
    grant :class:`Event` on the fast path.  The waiter queue is
    heterogeneous: event-based requests enqueue the grant Event, while
    kernel-yielded waiters are packed ints
    ``(wait_start_ns << PROC_BITS) | process_index`` resumed through
    ``sim._grant``, and flat-op waiters are the *complement-packed*
    negative ints ``~((wait_start_ns << PROC_BITS) | opidx)`` resumed
    through ``sim._flat_grant``.  All forms are granted strictly in
    arrival order.
    """

    __slots__ = ("sim", "capacity", "in_use", "_waiters", "name",
                 "grants", "total_wait_ns")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Any] = deque()
        self.name = name
        #: Number of grants handed out (instrumentation).
        self.grants = 0
        #: Cumulative time requesters spent queued (instrumentation).
        self.total_wait_ns = 0

    @property
    def queue_length(self) -> int:
        """Number of requests currently waiting."""
        return len(self._waiters)

    @property
    def available(self) -> bool:
        """True when a request issued now would be granted immediately."""
        return self.in_use < self.capacity and not self._waiters

    def try_acquire(self) -> bool:
        """Take one unit synchronously when the resource is free.

        Returns True (unit taken) when a :meth:`request` issued now
        would be granted immediately.  The caller must then ``yield``
        :data:`~repro.engine.core.TURN` so the engine re-enqueues it at
        the position the grant event's dispatch would have occupied --
        keeping the executed event sequence identical to the event-based
        grant while skipping the Event allocation.  Returns False when
        the unit is busy; the caller falls back to :meth:`request`.
        """
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            self.grants += 1
            return True
        return False

    def request(self) -> Event:
        """Ask for one unit; the returned event triggers when granted.

        The event's value is the wait duration in nanoseconds.
        """
        event = Event(self.sim)
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            self.grants += 1
            event.succeed(0)
        else:
            # Stash the request time on the event for wait accounting.
            event.value = self.sim._now
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit, granting the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            now = self.sim._now
            if waiter.__class__ is int:
                if waiter >= 0:
                    # Packed kernel waiter: (wait_start << PROC_BITS) | p.
                    waited = now - (waiter >> PROC_BITS)
                    self.total_wait_ns += waited
                    self.grants += 1
                    self.sim._grant(waiter & PROC_MASK, waited)
                else:
                    # Flat-op waiter, complement-packed so it is
                    # distinguishable from a process index:
                    # ~((wait_start << PROC_BITS) | opidx).  See
                    # SoaSimulator.flat_transmit.
                    packed = ~waiter
                    waited = now - (packed >> PROC_BITS)
                    self.total_wait_ns += waited
                    self.grants += 1
                    self.sim._flat_grant(packed & PROC_MASK)
            else:
                waited = now - waiter.value
                waiter.value = None
                self.total_wait_ns += waited
                self.grants += 1
                waiter.succeed(waited)
        else:
            self.in_use -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name} {self.in_use}/{self.capacity} "
            f"queue={len(self._waiters)}>"
        )
