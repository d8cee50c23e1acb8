"""The LogP machine: no caches, network abstracted by L and g.

Each node holds its slice of shared memory (like the paper's reference
to the BBN Butterfly GP-1000); *every* reference to a non-local address
becomes a request/reply round trip through the
:class:`~repro.core.logp_net.LogPNetwork` -- there is no cache to absorb
reuse or spatial locality, which is exactly what the paper's
LogP-vs-CLogP comparison isolates.

Spin-based synchronization cannot sit in a cache here: a blocked
processor polls the remote word every ``poll_interval_ns``, and each
poll is two messages charged to latency overhead
(:meth:`LogPMachine.split_spin`).  Fig. 3's enormous EP latency
overhead on LogP comes from precisely this behaviour.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import SystemConfig
from ..faults.reliable import RetryPolicy
from .logp_net import LogPNetwork
from .machine import Machine, register_machine
from .params import derive_logp


class LogPNetMachine(Machine):
    """Base of the machines whose network is the LogP abstraction.

    Builds the :class:`LogPNetwork` from the configuration and sends
    explicit messages through it; subclasses supply the memory model.
    """

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.params = derive_logp(config, self.topology)
        self.net = LogPNetwork(
            self.sim,
            self.params,
            per_event_type=config.g_per_event_type,
            topology=self.topology,
            adaptive=config.adaptive_g,
            injector=self.fault_injector,
            retry_policy=(
                RetryPolicy.from_fault(config.fault)
                if self.fault_injector is not None else None
            ),
            checkers=self.checkers,
        )

    def mp_transmit(self, pid: int, dst: int, nbytes: int):
        """Explicit message through the LogP network, packetized.

        Each packet is one LogP message: full ``L`` latency plus the
        per-node ``g`` gating (and ``o``, were it non-zero) -- the
        model's home turf, since LogP was formulated for message
        passing.
        """
        if pid == dst:
            return 0, 0
        latency = 0
        total = 0
        remaining = nbytes
        packet = self.config.data_message_bytes
        while remaining > 0:
            trip = self.net.one_way(pid, dst)
            latency += trip.latency_ns
            total = max(total, trip.total_ns)
            if trip.retry_ns:
                self.record_retry(pid, trip.retry_ns)
            remaining -= packet
        yield total
        return latency, 0

    def message_count(self) -> int:
        return self.net.messages


@register_machine
class LogPMachine(LogPNetMachine):
    """Cache-less NUMA machine over the LogP network abstraction."""

    name = "logp"

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self._poll_messages = 0

    # -- memory interface ---------------------------------------------------------

    def try_fast(self, pid: int, addr: int, is_write: bool) -> Optional[int]:
        if self.space.home_of(addr) == pid:
            return self.config.memory_ns
        return None

    def transact(self, pid: int, addr: int, is_write: bool):
        home = self.space.home_of(addr)
        trip = self.net.round_trip(pid, home, service_ns=self.config.memory_ns)
        if trip.retry_ns:
            self.record_retry(pid, trip.retry_ns)
        yield trip.total_ns
        return trip.latency_ns, trip.service_ns

    # -- spin model ---------------------------------------------------------------

    def split_spin(self, pid: int, wait_ns: int, addr: int) -> Tuple[int, int]:
        """Blocked waits become periodic remote polls.

        A poll is a full round trip (2 messages, 2L of latency).  Waits
        on locally-homed words poll local memory and cost nothing extra.
        """
        if wait_ns <= 0 or self.space.home_of(addr) == pid:
            return 0, wait_ns
        polls = wait_ns // self.config.poll_interval_ns
        if polls <= 0:
            return 0, wait_ns
        poll_ns = polls * self.params.round_trip_ns
        if poll_ns > wait_ns:
            poll_ns = wait_ns
        self._poll_messages += 2 * polls
        return poll_ns, wait_ns - poll_ns

    def message_count(self) -> int:
        return self.net.messages + self._poll_messages
