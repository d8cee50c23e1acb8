"""A serial unidirectional network link.

A thin wrapper over :class:`~repro.engine.resource.Resource` carrying
per-link instrumentation: how many messages and bytes crossed it and
how long it was busy.  Links have capacity 1 -- the paper's networks use
serial (1-bit-wide) links, and circuit switching holds the whole link
for the duration of a transfer.
"""

from __future__ import annotations

from ..engine.core import Simulator
from ..engine.resource import Resource


class Link(Resource):
    """One directed link between two adjacent nodes."""

    __slots__ = ("src", "dst", "messages", "bytes_carried", "busy_ns",
                 "fail_windows")

    def __init__(self, sim: Simulator, src: int, dst: int):
        super().__init__(sim, capacity=1, name=f"link({src}->{dst})")
        self.src = src
        self.dst = dst
        #: Messages that traversed this link.
        self.messages = 0
        #: Total payload bytes carried.
        self.bytes_carried = 0
        #: Cumulative time the link was held by a circuit.
        self.busy_ns = 0
        #: Transient failure windows assigned by fault injection
        #: (tuple of :class:`~repro.faults.config.LinkFailure`).
        self.fail_windows = ()

    def is_failed(self, now: int) -> bool:
        """True while a transient failure window covers ``now``."""
        if not self.fail_windows:
            return False
        return any(window.covers(now) for window in self.fail_windows)

    def utilization(self, horizon_ns: int) -> float:
        """Fraction of ``horizon_ns`` the link was busy."""
        if horizon_ns <= 0:
            return 0.0
        return self.busy_ns / horizon_ns
