"""Circuit-switched network transport for the target machine.

The paper's target networks are circuit-switched with wormhole routing,
serial 20 MB/s links, and negligible switching delay.  We model a
message as follows:

1. compute the deterministic route (dimension-ordered, so in-order link
   acquisition is deadlock-free),
2. acquire every link along the route in path order, *holding* links
   already acquired (this is the circuit being built; head-of-line
   blocking while holding upstream links is exactly the wormhole
   behaviour that creates tree contention),
3. once the circuit is complete, transmit for ``nbytes x 50 ns`` --
   with negligible switching delay the pipeline is limited purely by
   the serial-link bandwidth, so the contention-free time of a message
   is independent of hop count (which is why the paper's latency
   figures barely differ across topologies),
4. release all links.

For every message we return the split the paper's SPASM profiler keeps:
*latency* = contention-free transmission time, *contention* = everything
else the message spent in the network (waiting for links).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..engine.core import Simulator
from ..errors import TopologyError
from .link import Link
from .message import Message
from .topology import LinkId, Topology


class TransferResult:
    """Timing decomposition of one completed message transfer.

    A plain ``__slots__`` value class:

    * ``latency_ns`` -- contention-free transmission time (charged to
      latency overhead),
    * ``contention_ns`` -- time spent waiting for links (charged to
      contention overhead),
    * ``delivered`` -- did the payload arrive intact?  Always True on a
      fault-free fabric; with fault injection a dropped or corrupted
      message still occupies the network but delivers nothing.

    Fault-injected time (stalls, extra delays) is in neither split: the
    reliable-delivery layer charges it to retry overhead.
    """

    __slots__ = ("latency_ns", "contention_ns", "delivered")

    def __init__(self, latency_ns: int, contention_ns: int,
                 delivered: bool = True):
        self.latency_ns = latency_ns
        self.contention_ns = contention_ns
        self.delivered = delivered

    @property
    def total_ns(self) -> int:
        return self.latency_ns + self.contention_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransferResult(latency_ns={self.latency_ns}, "
            f"contention_ns={self.contention_ns}, "
            f"delivered={self.delivered})"
        )


class Fabric:
    """The set of links of one topology plus the transfer protocol."""

    def __init__(self, sim: Simulator, topology: Topology, ns_per_byte: int,
                 switch_delay_ns: int = 0, injector=None, checkers=None):
        self.sim = sim
        self.topology = topology
        self.ns_per_byte = ns_per_byte
        #: Per-hop switching delay (0 per the paper's assumption).
        self.switch_delay_ns = switch_delay_ns
        #: Optional :class:`~repro.faults.injector.FaultInjector`.
        #: When None (the default) the fabric is perfectly reliable and
        #: follows the exact pre-fault code path.
        self.injector = injector
        #: Sanitizer message hooks (empty tuple when unchecked).
        self._message_hooks = (
            checkers.message_hooks if checkers is not None else ()
        )
        self._links: Dict[LinkId, Link] = {
            link_id: Link(sim, *link_id) for link_id in topology.links()
        }
        #: Deterministic routes resolved to Link tuples, pre-filled for
        #: every (src, dst) pair at construction.  A flat
        #: ``src * nprocs + dst`` table: the per-message lookup is a
        #: list index instead of a tuple-keyed dict probe, and the hot
        #: paths (including the C flat-op stepper) index it with no
        #: None check.  The diagonal stays None -- every caller handles
        #: src == dst before routing.
        self._nprocs = topology.nprocs
        nprocs = self._nprocs
        links = self._links
        self._route_links: List[Optional[Tuple[Link, ...]]] = (
            [None] * (nprocs * nprocs)
        )
        for src in range(nprocs):
            base = src * nprocs
            for dst in range(nprocs):
                if src != dst:
                    self._route_links[base + dst] = tuple(
                        links[link_id]
                        for link_id in topology.route(src, dst)
                    )
        #: ``injector.stall_ns``, or None when the config has no node
        #: stalls (the per-message stall lookups are skipped).
        self._stall_ns = None
        if injector is not None:
            for window in injector.fault.link_failures:
                link = self._links.get((window.src, window.dst))
                if link is not None:
                    link.fail_windows = link.fail_windows + (window,)
            if injector.fault.node_stalls:
                self._stall_ns = injector.stall_ns
        #: True when the lean transfer path is active (fault-free,
        #: hook-free, zero switching delay).  Machines key their own
        #: fast paths off this flag (see ``TargetMachine._net_lat``).
        self.is_plain = (
            injector is None and switch_delay_ns == 0
            and not self._message_hooks
        )
        #: Total messages transported.
        self.messages = 0
        #: Total payload bytes transported.
        self.bytes_transported = 0
        #: Sum of latency portions over all messages.
        self.total_latency_ns = 0
        #: Sum of contention portions over all messages.
        self.total_contention_ns = 0

    def link(self, src: int, dst: int) -> Link:
        """The link between two adjacent nodes (raises if absent)."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise TopologyError(
                f"no link {src}->{dst} in {self.topology.name}"
            ) from None

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    def transmit(self, message: Message):
        """Generator: move ``message`` across the network.

        Returns a :class:`TransferResult`.  The Message-based entry for
        tests and tools; machine models call :meth:`send` (general
        fabric) or :meth:`transmit_fast` (plain fabric), which return
        the latency alone.
        """
        result = TransferResult(0, 0)
        if self.is_plain:
            start = self.sim._now
            result.latency_ns = yield from self.transmit_fast(
                message.src, message.dst, message.nbytes
            )
            result.contention_ns = (
                self.sim._now - start - result.latency_ns
            )
        else:
            yield from self.send(message.src, message.dst, message.nbytes,
                                 message.kind, result)
        return result

    def send(self, src: int, dst: int, nbytes: int, kind: str,
             result: Optional[TransferResult] = None):
        """Generator: move one message across the general fabric
        (faults, message hooks, or switching delay).

        Returns the latency split (the contention-free transfer time);
        when ``result`` is given, it is also filled with the contention
        split and the delivered flag -- the reliable-delivery layer
        passes one per logical message.  A message to self costs
        nothing and leaves ``result`` untouched (local memory is not
        behind the network).
        """
        if src == dst:
            return 0
        sim = self.sim
        injector = self.injector
        stall_ns = self._stall_ns
        start = sim._now
        pre_circuit_fault = 0
        fate = None
        if injector is not None:
            if stall_ns is not None:
                # A stalled sender cannot inject until its window closes.
                pre_circuit_fault = stall_ns(src, start)
                if pre_circuit_fault:
                    yield pre_circuit_fault
            fate = injector.fate(src, dst, sim._now)
        path = self._route_links[src * self._nprocs + dst]
        switch_ns = self.switch_delay_ns
        # Build the circuit: acquire links in path order, paying the
        # per-hop switching delay while the circuit extends.
        for link in path:
            # Kernel-resolved grant: no grant Event on any kernel when
            # the link is free, a packed int waiter on the SoA kernels
            # when it is busy.
            yield link
            if link.fail_windows and link.is_failed(sim._now):
                # The circuit head reached a dead link: the worm is
                # lost and the partial circuit torn down.  (Only fault
                # injection assigns failure windows.)
                link.release()
                for upstream in path[:path.index(link)]:
                    upstream.release()
                injector.window_drops += 1
                self.messages += 1
                now = sim._now
                for hook in self._message_hooks:
                    hook(now, src, dst, kind, nbytes, False)
                if result is not None:
                    result.latency_ns = 0
                    result.contention_ns = now - start - pre_circuit_fault
                    result.delivered = False
                return 0
            if switch_ns:
                yield switch_ns
        circuit_done = sim._now
        transmit_ns = nbytes * self.ns_per_byte
        yield transmit_ns
        held_ns = sim._now - circuit_done
        for link in path:
            link.messages += 1
            link.bytes_carried += nbytes
            link.busy_ns += held_ns
            link.release()
        if fate is not None:
            # Fault-injected delay plus a stalled receiver's ejection
            # wait; both are recovery time, not latency or contention.
            post = fate.delay_ns
            if stall_ns is not None:
                post += stall_ns(dst, sim._now)
            if post:
                yield post
        # Contention-free, the message would have taken the switching
        # delays plus the serial transmission; anything beyond that was
        # queueing for links.
        latency = transmit_ns + switch_ns * len(path)
        contention = (circuit_done - start - pre_circuit_fault) - \
            switch_ns * len(path)
        self.messages += 1
        self.bytes_transported += nbytes
        self.total_latency_ns += latency
        self.total_contention_ns += contention
        delivered = fate is None or fate.delivered
        if self._message_hooks:
            now = sim._now
            for hook in self._message_hooks:
                hook(now, src, dst, kind, nbytes, delivered)
        if result is not None:
            result.latency_ns = latency
            result.contention_ns = contention
            result.delivered = delivered
        return latency

    def transmit_fast(self, src: int, dst: int, nbytes: int):
        """Generator: :meth:`send` specialized for the fault-free,
        hook-free, zero-switch-delay fabric (the common case).

        Returns the latency (the transmission time) as a plain int; the
        contention split is observable as elapsed minus returned.
        Yields the exact event sequence of :meth:`send` -- one link
        grant per hop in path order, then one transmission timeout --
        and updates the same fabric and per-link statistics, so
        simulated results and instrumentation are bit-identical with
        the general path; it only strips per-message host-side work
        (injector branches, hook dispatch).  Only valid when
        :attr:`is_plain` is true.
        """
        if src == dst:
            return 0
        sim = self.sim
        start = sim._now
        path = self._route_links[src * self._nprocs + dst]
        for link in path:
            # Kernel-resolved grant (see Resource): no Event allocation
            # on the SoA kernel, free or busy.
            yield link
        circuit_done = sim._now
        transmit_ns = nbytes * self.ns_per_byte
        yield transmit_ns
        held_ns = sim._now - circuit_done
        for link in path:
            link.messages += 1
            link.bytes_carried += nbytes
            link.busy_ns += held_ns
            link.release()
        self.messages += 1
        self.bytes_transported += nbytes
        self.total_latency_ns += transmit_ns
        self.total_contention_ns += circuit_done - start
        return transmit_ns

    def settle_fast(self, path: Tuple[Link, ...], nbytes: int,
                    transmit_ns: int, start: int, circuit_done: int,
                    end: int) -> None:
        """Book one completed fast-path transfer (see ``transmit_fast``).

        Callers that inline the acquire/transmit yields into their own
        generator frame (the target machine's plain transactions) call
        this once per message to apply the identical per-link and
        fabric-level accounting.
        """
        held_ns = end - circuit_done
        for link in path:
            link.messages += 1
            link.bytes_carried += nbytes
            link.busy_ns += held_ns
            if link._waiters:
                link.release()
            else:
                # Uncontended release inlined (in_use >= 1 is
                # guaranteed: this frame acquired the link above).
                link.in_use -= 1
        self.messages += 1
        self.bytes_transported += nbytes
        self.total_latency_ns += transmit_ns
        self.total_contention_ns += circuit_done - start

    def post_fast(self, src: int, dst: int, nbytes: int,
                  name: str = "post"):
        """Fire-and-forget ``transmit_fast`` (plain fabric only).

        On a flat-capable kernel the transfer is posted as a *flat op*
        -- a tag-dispatched table entry the kernel steps through with
        no generator frame (see ``SoaSimulator.flat_transmit``); on the
        object kernel it spawns the generator twin.  Both produce the
        identical event sequence and accounting.  Returns the joinable
        shell event.
        """
        sim = self.sim
        if sim._flat_capable and src != dst:
            path = self._route_links[src * self._nprocs + dst]
            tx = nbytes * self.ns_per_byte
            return sim.flat_transmit(self, ((path, nbytes, tx),), value=tx)
        return sim.spawn(self.transmit_fast(src, dst, nbytes), name=name)

    def post(self, message: Message, name: Optional[str] = None):
        """Fire-and-forget transmit (used for evicted-block writebacks).

        The message still occupies real links -- it just is not on any
        processor's critical path.  Returns the spawned process, which
        callers may join if they need completion.
        """
        return self.sim.spawn(
            self.send(message.src, message.dst, message.nbytes, message.kind),
            name=name or f"post:{message.kind}",
        )

    # -- instrumentation -------------------------------------------------------

    def busiest_links(self, count: int = 5) -> List[Link]:
        """The ``count`` links with the highest busy time."""
        return sorted(self._links.values(), key=lambda l: -l.busy_ns)[:count]

    def total_link_wait_ns(self) -> int:
        """Aggregate time messages spent queued on links."""
        return sum(link.total_wait_ns for link in self._links.values())
