"""Sender-side reliable delivery over an unreliable fabric.

A minimal ARQ protocol: every data message is acknowledged by an
8-byte-class control message; the sender retransmits after a timeout
that backs off exponentially, gives up after ``max_retries``
retransmissions with a :class:`~repro.errors.RetryLimitError`, and the
receiver suppresses duplicates (a retransmission that races a lost ack)
by per-channel sequence numbers.

Cost accounting follows the SPASM philosophy of separating overheads:
the *successful* transmission keeps its ordinary latency/contention
split, and everything else -- failed attempts, backoff waits, acks,
duplicate retransmissions, fault-injected delays and stalls -- is
reported as ``retry_ns``, which the machine models charge to the
``retry_ns`` overhead bucket.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RetryLimitError
from ..network.fabric import TransferResult


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff/cap parameters of the ARQ sender."""

    timeout_ns: int
    max_retries: int
    backoff: float

    @classmethod
    def from_fault(cls, fault) -> "RetryPolicy":
        """Derive the policy from a :class:`~repro.faults.config.FaultConfig`."""
        return cls(
            timeout_ns=fault.retry_timeout_ns,
            max_retries=fault.max_retries,
            backoff=fault.backoff,
        )

    def backoff_ns(self, failed_attempts: int) -> int:
        """Wait before the retransmission following ``failed_attempts``."""
        return int(self.timeout_ns * self.backoff ** (failed_attempts - 1))


class ReliableTransport:
    """ARQ sender over a :class:`~repro.network.fabric.Fabric`.

    ``record_retry(pid, retry_ns)`` banks each exchange's recovery time
    against the processor on whose behalf it ran (the machine's
    :meth:`~repro.core.machine.Machine.record_retry`).
    """

    def __init__(self, fabric, policy: RetryPolicy, record_retry,
                 ack_bytes: int = 8, checkers=None):
        self.fabric = fabric
        self.policy = policy
        self.record_retry = record_retry
        self.ack_bytes = ack_bytes
        #: Sanitizer checkers observing the ARQ exchange lifecycle
        #: (empty tuple when unchecked).  Raw fabric messages are
        #: observed by the fabric itself; these hooks see the *logical*
        #: send/accept/complete events the exactly-once invariant is
        #: stated over.
        self._arq_checkers = (
            checkers.arq_checkers if checkers is not None else ()
        )
        #: Retransmitted data messages (instrumentation).
        self.retransmissions = 0
        #: Acks transmitted by receivers.
        self.acks_sent = 0
        #: Acks lost in the network (each forces a duplicate data send).
        self.acks_lost = 0
        #: Duplicate data deliveries suppressed by the receiver.
        self.duplicates_suppressed = 0

    def send(self, pid: int, src: int, dst: int, nbytes: int, kind: str):
        """Generator: deliver one message reliably on behalf of ``pid``.

        Returns the latency of the first successful delivery.  Every
        other nanosecond the exchange took beyond that delivery's
        latency and contention is banked through ``record_retry``.

        :raises RetryLimitError: the retry cap was exhausted.
        """
        fabric = self.fabric
        sim = fabric.sim
        policy = self.policy
        arq_checkers = self._arq_checkers
        start = sim._now
        # One receipt per logical message, refilled by every transfer.
        result = TransferResult(0, 0)
        delivered = False
        latency = 0
        network_ns = 0
        failed_attempts = 0
        for checker in arq_checkers:
            checker.on_logical_send(start, src, dst)
        while True:
            attempt_latency = yield from fabric.send(
                src, dst, nbytes, kind, result
            )
            if result.delivered:
                for checker in arq_checkers:
                    checker.on_app_delivery(sim._now, src, dst, delivered)
                if delivered:
                    # A retransmission racing a lost ack: the receiver
                    # recognizes the sequence number and discards it.
                    self.duplicates_suppressed += 1
                else:
                    delivered = True
                    latency = attempt_latency
                    network_ns = attempt_latency + result.contention_ns
                # The receiver (re-)acks every intact copy it sees.
                yield from fabric.send(dst, src, self.ack_bytes, "ack",
                                       result)
                self.acks_sent += 1
                if result.delivered:
                    for checker in arq_checkers:
                        checker.on_logical_complete(sim._now, src, dst)
                    break
                self.acks_lost += 1
            failed_attempts += 1
            if failed_attempts > policy.max_retries:
                raise RetryLimitError(src, dst, failed_attempts, sim._now)
            self.retransmissions += 1
            yield policy.backoff_ns(failed_attempts)
        retry_ns = sim._now - start - network_ns
        if retry_ns > 0:
            self.record_retry(pid, retry_ns)
        return latency
