"""The abstracted LogP network: L delays plus g-gap gating.

Both the LogP and CLogP machines transport messages through this model.
A message from ``src`` to ``dst``:

1. may stall at the *sender* until ``g`` has elapsed since the sender's
   previous network event,
2. spends ``L`` in transit,
3. may stall at the *receiver* until ``g`` has elapsed since the
   receiver's previous network event.

The LogP definition gates *all* network events at a node with one gap
(a node cannot even overlap a send with a receive) -- the paper points
out this is one source of contention pessimism.  With
``per_event_type=True`` (the Section 7 relaxation) sends and receives
are gated independently.

Stalls are the model's *contention* estimate; the ``L`` terms are its
*latency* estimate.  The gate bookkeeping is pure arithmetic -- callers
get back the total duration and sleep once, which keeps LogP-machine
simulations event-light even though the *paper's* LogP simulations were
slow (their cost was the sheer number of references that become network
events; ours is too, relative to the cached machines).
"""

from __future__ import annotations

from typing import List, NamedTuple

from ..engine.core import Simulator
from .params import LogPParams


class Trip(NamedTuple):
    """Timing decomposition of one (round-)trip through the LogP network."""

    #: Total elapsed time from initiation to completion.
    total_ns: int

    #: Contention-free transmission time (the L terms).
    latency_ns: int

    #: g-gap stall time (the model's contention estimate).
    stall_ns: int

    #: Remote service time included in the trip (e.g. memory access).
    service_ns: int

    #: Number of messages injected.
    messages: int

    #: Reliable-delivery recovery time contained in ``total_ns``:
    #: failed attempts, backoff waits, acks, fault delays and stalls.
    #: Zero on a fault-free network.
    retry_ns: int = 0


class LogPNetwork:
    """Per-node g-gap gates plus L-delay arithmetic.

    With ``adaptive=True`` (and a topology to measure routes on), the
    model implements the history-based g estimation the paper suggests
    as future work in Section 7: the effective gap is the configured
    ``g`` scaled by the *observed* communication locality -- the running
    mean of route hop counts divided by the mean hop count of uniform
    traffic (the assumption under which the bisection-bandwidth ``g``
    is derived).  An application whose messages travel half as far as
    uniform traffic gets half the gap, removing much of the pessimism
    the paper documents for EP.
    """

    def __init__(self, sim: Simulator, params: LogPParams,
                 per_event_type: bool = False, topology=None,
                 adaptive: bool = False, injector=None,
                 retry_policy=None, checkers=None):
        self.sim = sim
        self.params = params
        self.per_event_type = per_event_type
        self.adaptive = adaptive and topology is not None
        self.topology = topology
        #: Sanitizer hooks (empty tuples when unchecked).
        self._message_hooks = (
            checkers.message_hooks if checkers is not None else ()
        )
        self._arq_checkers = (
            checkers.arq_checkers if checkers is not None else ()
        )
        #: Optional :class:`~repro.faults.injector.FaultInjector`; when
        #: set, every message goes through the reliable-delivery
        #: arithmetic in :meth:`_one_way_faulty` (see there).
        self.injector = injector
        self.retry_policy = retry_policy
        #: Cumulative reliable-delivery recovery time.
        self.total_retry_ns = 0
        nprocs = params.P
        # Next time each node may perform a network event.  With
        # per-event-type gating, sends and receives have separate gates.
        self._send_gate: List[int] = [0] * nprocs
        self._recv_gate: List[int] = (
            [0] * nprocs if per_event_type else self._send_gate
        )
        #: Total messages injected through this network.
        self.messages = 0
        #: Cumulative stall time (instrumentation).
        self.total_stall_ns = 0
        # History for adaptive g.
        self._hops_total = 0
        self._hops_messages = 0
        self._uniform_mean_hops = (
            self._mean_uniform_hops(topology) if self.adaptive else 0.0
        )

    @staticmethod
    def _mean_uniform_hops(topology) -> float:
        """Mean route length of uniform all-pairs traffic."""
        nprocs = topology.nprocs
        if nprocs <= 1:
            return 1.0
        total = sum(
            topology.hops(src, dst)
            for src in range(nprocs)
            for dst in range(nprocs)
            if src != dst
        )
        return total / (nprocs * (nprocs - 1))

    # -- gate helpers ------------------------------------------------------------

    def effective_g(self) -> int:
        """The gap currently applied (scaled by history when adaptive)."""
        g = self.params.g_ns
        if not self.adaptive or self._hops_messages == 0:
            return g
        observed = self._hops_total / self._hops_messages
        factor = min(1.0, observed / self._uniform_mean_hops)
        return round(g * factor)

    def _observe(self, src: int, dst: int) -> None:
        if self.adaptive:
            self._hops_total += self.topology.hops(src, dst)
            self._hops_messages += 1

    def _gate_send(self, node: int, at: int) -> int:
        """Earliest time >= ``at`` the node may send; reserves the slot."""
        start = max(at, self._send_gate[node])
        self._send_gate[node] = start + self.effective_g()
        return start

    def _gate_recv(self, node: int, at: int) -> int:
        """Earliest time >= ``at`` the node may receive; reserves the slot."""
        start = max(at, self._recv_gate[node])
        self._recv_gate[node] = start + self.effective_g()
        return start

    # -- trips --------------------------------------------------------------------

    def _leg(self, src: int, dst: int, now: int):
        """One fault-free message sent at ``now``: gate it, count it.

        Returns ``(received, stall)``.  The send and receive gates are
        updated inline with one ``g`` per leg; under strict gating the
        two gate lists are the same list, so a receive waits for the
        node's last send and vice versa.
        """
        if self.adaptive:
            self._observe(src, dst)
            g = self.effective_g()
        else:
            g = self.params.g_ns
        gate = self._send_gate
        sent = gate[src]
        if sent < now:
            sent = now
        gate[src] = sent + g
        arrived = sent + self.params.L_ns
        gate = self._recv_gate
        received = gate[dst]
        if received < arrived:
            received = arrived
        gate[dst] = received + g
        stall = (sent - now) + (received - arrived)
        self.messages += 1
        self.total_stall_ns += stall
        for hook in self._message_hooks:
            hook(received, src, dst, "logp", 0, True)
        return received, stall

    def one_way(self, src: int, dst: int, start_at: int = None) -> Trip:
        """One message src -> dst; returns its timing decomposition."""
        now = self.sim.now if start_at is None else start_at
        if self.injector is not None:
            return self._one_way_faulty(src, dst, now)
        received, stall = self._leg(src, dst, now)
        o2 = 2 * self.params.o_ns
        return Trip(received - now + o2, self.params.L_ns + o2, stall, 0, 1)

    def _one_way_faulty(self, src: int, dst: int, begin: int) -> Trip:
        """One message under fault injection with reliable delivery.

        The LogP network abstracts links, so the ARQ protocol is
        abstracted to match: each attempt pays the ordinary gated trip;
        a lost or corrupted attempt costs a backed-off timeout before
        the retransmission; a delivered attempt is confirmed by an ack
        that costs one ``L`` (acks are small and not ``g``-gated -- the
        deliberate simplification mirroring how the model already
        ignores control-message sizes).  Link-failure windows apply to
        any route the topology says crosses the dead link; node stalls
        freeze the endpoint until their window closes.

        The returned trip keeps the successful attempt's ``L`` as
        latency and its gate waits as stall; everything else is
        ``retry_ns``.

        :raises RetryLimitError: the retry cap was exhausted.
        """
        from ..errors import RetryLimitError

        injector = self.injector
        # No node stalls configured: skip the two lookups per attempt.
        stalls = injector.fault.node_stalls
        policy = self.retry_policy
        message_hooks = self._message_hooks
        arq_checkers = self._arq_checkers
        L = self.params.L_ns
        o2 = 2 * self.params.o_ns
        self._observe(src, dst)
        now = begin
        failed_attempts = 0
        delivered = False
        latency = L + o2
        stall = 0
        for checker in arq_checkers:
            checker.on_logical_send(begin, src, dst)
        while True:
            send_stall = injector.stall_ns(src, now) if stalls else 0
            fate = injector.fate(src, dst, now + send_stall, check_route=True)
            sent = self._gate_send(src, now + send_stall)
            self.messages += 1
            if not fate.delivered and not fate.corrupted:
                # Lost in the network: the sender times out.
                failure_at = sent + L
                if message_hooks:
                    for hook in message_hooks:
                        hook(failure_at, src, dst, "logp", 0, False)
            else:
                arrived = sent + L + fate.delay_ns
                recv_stall = (
                    injector.stall_ns(dst, arrived) if stalls else 0
                )
                received = self._gate_recv(dst, arrived + recv_stall)
                if fate.corrupted:
                    # Checksum failure at the receiver: no ack follows.
                    failure_at = received
                    if message_hooks:
                        for hook in message_hooks:
                            hook(received, src, dst, "logp", 0, False)
                else:
                    if message_hooks:
                        for hook in message_hooks:
                            hook(received, src, dst, "logp", 0, True)
                    for checker in arq_checkers:
                        checker.on_app_delivery(received, src, dst, delivered)
                    if not delivered:
                        delivered = True
                        stall = (sent - (now + send_stall)) + \
                            (received - (arrived + recv_stall))
                    ack_fate = injector.fate(
                        dst, src, received, check_route=True
                    )
                    acked = received + L
                    self.messages += 1
                    if message_hooks:
                        for hook in message_hooks:
                            hook(acked, dst, src, "ack", 0,
                                 ack_fate.delivered)
                    if ack_fate.delivered:
                        for checker in arq_checkers:
                            checker.on_logical_complete(acked, src, dst)
                        total = (acked - begin) + o2
                        retry = max(0, total - latency - stall)
                        self.total_stall_ns += stall
                        self.total_retry_ns += retry
                        return Trip(
                            total_ns=total,
                            latency_ns=latency,
                            stall_ns=stall,
                            service_ns=0,
                            messages=1,
                            retry_ns=retry,
                        )
                    failure_at = acked
            failed_attempts += 1
            if failed_attempts > policy.max_retries:
                raise RetryLimitError(src, dst, failed_attempts, failure_at)
            now = failure_at + policy.backoff_ns(failed_attempts)

    def round_trip(self, src: int, dst: int, service_ns: int = 0) -> Trip:
        """Request src -> dst, remote service, reply dst -> src.

        This is the cost of satisfying a shared-memory reference
        remotely under the LogP abstraction.  ``service_ns`` models the
        remote node's memory/cache access between the two messages.
        """
        now = self.sim.now
        if self.injector is not None:
            request = self._one_way_faulty(src, dst, now)
            reply = self._one_way_faulty(
                dst, src, now + request.total_ns + service_ns
            )
            return Trip(
                request.total_ns + service_ns + reply.total_ns,
                request.latency_ns + reply.latency_ns,
                request.stall_ns + reply.stall_ns,
                service_ns, 2, request.retry_ns + reply.retry_ns,
            )
        o2 = 2 * self.params.o_ns
        received, request_stall = self._leg(src, dst, now)
        replied, reply_stall = self._leg(dst, src, received + o2 + service_ns)
        return Trip(replied - now + o2, 2 * (self.params.L_ns + o2),
                    request_stall + reply_stall, service_ns, 2)
