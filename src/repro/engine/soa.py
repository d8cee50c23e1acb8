"""Struct-of-arrays event kernel: the un-instrumented fast engine.

The object kernel in :mod:`repro.engine.core` drives every event
through Python objects -- a heap of ``(time, seq, action)`` tuples, a
``functools.partial`` per resumption, a ``Process._step`` frame per
yield.  At a few microseconds of host time per simulated event that
interpreter-dispatch overhead is the repo's scaling ceiling (see
ROADMAP item 2).  This module replaces the storage and the loop while
keeping the executed *event sequence* bit-identical:

Packed queue words
    Most events are process resumptions that carry at most a small int
    (a grant's wait time): they need no object at all, so the queues
    hold plain ints and the run loop decodes them with shifts and
    masks.  A future resumption is a heap key
    ``(time << ROW_BITS) | row``; a same-time resumption is a ring word
    ``(value << VAL_SHIFT) | (proc << 3) | tag`` -- pushed, popped, and
    decoded without touching the allocator at all.

Row table (struct of arrays)
    Events that carry a Python object (event dispatches, late event
    waiters, legacy callables) park it in a preallocated, growable row
    table: an ``array('q')`` metadata column holding
    ``(target << 3) | kind`` plus a parallel object payload column.
    The *row index* stands in for the old action object.  There is no
    separate time or sequence column: a heap key's high bits are the
    time, and heap rows are allocated in strictly increasing order, so
    the row index *is* the sequence number -- the tie-break the object
    kernel stores explicitly comes for free.

Index-based heap + same-time FIFO ring
    Future rows sit in a binary heap of packed int keys ordered by C
    ``heapq``; because heap rows are monotone, the key's low bits break
    same-time ties in schedule order -- exactly the ``(time, seq)``
    order of the object kernel.  ``ROW_BITS`` is a fixed 32: a constant
    field width means the decode masks in the run loop can never go
    stale, no matter when a nested call grows the table.  Work
    scheduled at the current time bypasses the heap through a deque
    holding packed resume words (tag bit set) and shifted row indices
    (tag bit clear), mirroring the object kernel's ring.

Free-list row recycling
    Every popped row is returned to a free list before its action runs
    and is typically reused by the next payload-carrying push, so
    steady-state scheduling allocates nothing: resume events are pure
    int arithmetic and payload events recycle rows.

Epoch compaction
    When the monotone allocator reaches the end of the row table the
    kernel renumbers live rows into a fresh epoch: pending heap entries
    are gathered in key order (preserving ``(time, seq)``), assigned
    rows ``0..h-1``, ring rows follow (packed resume words carry no row
    and pass through untouched), and the columns grow in place (same
    array objects, so the run loop's cached locals stay valid) doubling
    only while live rows exceed half the capacity.  Live rows are
    bounded by blocked processes, so with the default capacity a long
    run compacts every few thousand heap pushes at a cost of a few
    dozen row copies.

Direct generator drive
    The run loop resumes process generators through a cached bound
    ``gen.send`` and handles the yielded value inline -- no ``Process``
    step frame, no partial, no tuple.  Event dispatch still runs waiter
    callbacks *synchronously inside the dispatch event* (so event
    counts match the object kernel exactly); waiting processes are
    parked in ``Event._callbacks`` / ``Resource._waiters`` as plain
    ints and resumed via :meth:`SoaSimulator._advance`.

Monotonicity is checked per pop, as on the object kernel: a popped
heap key may not lie in the past and must sit strictly below the new
heap root (keys are unique, so an equal root means a duplicated
entry; the compare is between two keys of the same epoch, so it stays
valid across compaction), and ``_heap_row`` refuses a time in the past.

Kernel selection (see :func:`repro.engine.make_simulator`): the SoA
kernel is the default engine, checked runs included;
``REPRO_ENGINE=object`` or ``SystemConfig.engine_kernel`` forces the
fallback, and simulators with an ``on_event`` checker hook (the
determinism digest) *always* run the object kernel so the hook
observes real ``(time, seq)`` actions.  Both kernels execute identical
event sequences -- same ``sim_events``, same results, same
determinism digests -- which the parity tests pin.

The loop is deliberately written in a compile-friendly style -- int
words, flat branches on small int tags, no closures in the hot path --
so a later mypyc/Cython build of this module is a compile flag, not
another refactor.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from functools import partial
from typing import Any, Dict, List, Optional

from ..errors import DeadlockError, ReproError, SimulationError, WatchdogError
from .core import (
    FLAT_TX,
    PROC_BITS,
    PROC_MASK,
    TURN,
    Acquirable,
    Event,
    ProcessGenerator,
    Simulator,
    _order_regressed,
    _past_schedule,
    _time_went_backwards,
)

# Row kinds, stored in the metadata column's low 3 bits.
K_RESUME_NONE = 0  #: resume generator with None (process start, sleeps)
K_RESUME_ZERO = 1  #: resume with 0 (TURN / immediate resource grant)
K_RESUME_VAL = 2   #: resume with the packed value (queued resource grant)
K_EVENT = 3        #: dispatch the payload Event's callbacks/waiters
K_EVWAIT = 4       #: late waiter on an already-dispatched payload Event
K_CALL = 5         #: invoke the payload callable (legacy ``_schedule``)
K_FLAT = 6         #: flat-op transmission wake (settle, see flat_transmit)

# Ring word encoding.  Bit 0 distinguishes packed resumptions (no row)
# from row indices:
#
#   packed resume:  (value << VAL_SHIFT) | (proc << 3) | tag
#   row index:      row << 1
#
# where only K_RESUME_VAL carries a value (a grant's wait time, >= 0).
_R_NONE = 1        #: ring word tag for K_RESUME_NONE
_R_ZERO = 3        #: ring word tag for K_RESUME_ZERO
_R_VAL = 5         #: ring word tag for K_RESUME_VAL
_R_FLAT = 7        #: flat-op step word: ``(opidx << 3) | 7`` (no value)
VAL_SHIFT = 3 + PROC_BITS

# Flat-op program tags, stored in op slot 11 (see the flat-op section
# of SoaSimulator).  F_XMIT is the fire-and-forget transmit program;
# the rest are the states of the compiled memory-transaction programs
# (flat_transact), named <phase the op is currently in>.  A _R_FLAT
# ring word means "next leg link granted" for leg tags, "home lock
# granted, run the directory plan" for the two LOCK tags, and "every
# invalidation round finished" for F_WR_WAIT; a K_FLAT
# heap row means "transmission done, settle" for leg tags and "service
# sleep done" for the MEM/HIT tags.
F_XMIT = 0       #: fire-and-forget transmit (flat_transmit)
F_RD_REQ = 1     #: read: request leg pid -> home in flight
F_RD_LOCK = 2    #: read: waiting on / granted the home lock
F_RD_MEM = 3     #: read: home memory service sleep
F_RD_FWD = 4     #: read: forward leg home -> owner in flight
F_RD_HIT = 5     #: read: owner cache service sleep
F_RD_DATA = 6    #: read: data leg source -> pid in flight
F_WR_REQ = 7     #: write: request leg pid -> home in flight
F_WR_LOCK = 8    #: write: waiting on / granted the home lock
F_WR_MEM = 9     #: write: home memory service sleep
F_WR_FWD = 10    #: write: forward leg home -> owner in flight
F_WR_WAIT = 11   #: write: parked on the invalidation-round join
F_WR_GRANT = 12  #: write: ownership-grant leg home -> pid in flight
F_WR_DATA = 13   #: write: data leg home/source -> pid in flight
F_WR_HIT = 14    #: write: owner cache service sleep

#: Fixed width of the row field in a packed heap key.  A constant --
#: rather than one derived from the current capacity -- means the
#: decode masks in the run loop can never go stale and compaction never
#: re-packs keys for a width change.  4G live rows is far beyond what
#: host memory admits; :meth:`SoaSimulator._compact` enforces the bound.
ROW_BITS = 32
ROW_MASK = (1 << ROW_BITS) - 1

#: Initial row-table capacity (rows, grown by epoch compaction).
DEFAULT_ROW_CAPACITY = 4096


def _key_regressed(key: int, root: int, now: int) -> None:
    """Raise for a popped heap key not strictly below the new root
    (the row field is the key's sequence number)."""
    _order_regressed((key >> ROW_BITS, key & ROW_MASK),
                     (root >> ROW_BITS, root & ROW_MASK), now)


class SoaProcess(Event):
    """Joinable shell of a process driven by the SoA kernel.

    The generator itself lives in the simulator's process table; this
    object is only the :class:`Event` other processes ``yield`` to join
    -- it triggers with the generator's return value, exactly like
    :class:`~repro.engine.core.Process`.
    """

    __slots__ = ("name",)

    def __init__(self, sim: "SoaSimulator", name: str):
        self.sim = sim
        self._callbacks: Optional[List[Any]] = []
        self.triggered = False
        self.value: Any = None
        self._exception: Optional[BaseException] = None
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "running"
        return f"<SoaProcess {self.name} {state}>"


class SoaSimulator(Simulator):
    """Drop-in :class:`~repro.engine.core.Simulator` on the SoA kernel.

    The public API (``spawn`` / ``timeout`` / ``event`` / ``run`` /
    ``engine_profile``) is unchanged; only the internal event storage
    and the run loop differ.  Construct through
    :func:`repro.engine.make_simulator`, which enforces the
    object-path-for-hooks invariant.
    """

    kernel = "soa"

    #: This kernel executes flattened leaf resumes (flat ops) natively;
    #: see :meth:`flat_transmit`.
    _flat_capable = True

    def __init__(self, fail_fast: bool = True, checkers=(),
                 row_capacity: int = DEFAULT_ROW_CAPACITY):
        super().__init__(fail_fast=fail_fast, checkers=checkers)
        if self._instrumented:
            raise SimulationError(
                "the SoA kernel cannot host on_event checker hooks; "
                "instrumented simulators must run the object kernel "
                "(use repro.engine.make_simulator)"
            )
        if row_capacity < 8:
            row_capacity = 8
        cap = 1 << (row_capacity - 1).bit_length()  # power of two
        self._cap = cap
        #: Metadata column: ``(target << 3) | kind`` per row.
        self._c_meta = array("q", [0]) * cap
        #: Parallel object column (event / callable payloads).
        self._payload: List[Any] = [None] * cap
        #: Monotone row allocator; heap rows must come from here so the
        #: key's low bits preserve push order (see module docstring).
        self._top = 0
        #: Free list of recycled rows, fed by every row pop and
        #: consumed by payload-carrying ring pushes (packed resume
        #: words never touch it).
        self._free: List[int] = []
        self._heap: List[int] = []
        self._ring: deque = deque()
        self._rows_recycled = 0
        self._compactions = 0
        # Process table: generator, cached bound send, joinable shell.
        self._gens: List[Any] = []
        self._sends: List[Any] = []
        self._procs: List[Optional[SoaProcess]] = []
        self._pfree: List[int] = []
        # Flat-op table: tag-dispatched leaf programs the kernel
        # executes without a generator frame (see flat_transmit and
        # flat_transact).
        self._flat_ops: List[Optional[list]] = []
        self._flat_free: List[int] = []
        self._flat_posts = 0
        #: Memory transactions compiled into flat ops (profiling).
        self.flat_tx = 0
        # Handoff slot between flat_transact and the FLAT_TX yield
        # dispatch: the op index whose caller is about to park.
        self._pending_flat_op = -1
        # Compiled-tier acceleration registration (see target.py):
        # ``(transact_flat, block_bytes, home_cache, home_of_block,
        # home_locks, home_lock, flat_ctx)``.  When the C loop sees a
        # deferred-call tuple whose callable is entry 0, it builds the
        # transaction op natively from the remaining entries instead
        # of calling into the interpreter; every other kernel (and the
        # C loop for any other callable) just makes the call.
        self._flat_mctx: Optional[tuple] = None
        # Event.succeed / timeouts / late callbacks schedule through
        # these entry points; shadow the object-kernel pair installed by
        # Simulator.__init__ with row pushes.
        self._schedule = self._schedule_row
        self._schedule_event = self._schedule_event_row

    # -- row scheduling ------------------------------------------------------

    def _payload_row(self, kind: int, target: int, pay: Any) -> None:
        """Enqueue a payload-carrying row on the FIFO ring."""
        free = self._free
        if free:
            row = free.pop()
            self._rows_recycled += 1
        else:
            row = self._top
            if row == self._cap:
                self._compact()
                row = self._top
            self._top = row + 1
        self._c_meta[row] = (target << 3) | kind
        self._payload[row] = pay
        self._ring_scheduled += 1
        self._ring.append(row << 1)

    def _heap_row(self, at: int, kind: int, target: int,
                  pay: Any = None) -> None:
        """Enqueue a future row on the packed-key heap (monotone rows)."""
        if at < self._now:
            _past_schedule(at, self._now)
        row = self._top
        if row == self._cap:
            self._compact()
            row = self._top
        self._top = row + 1
        self._c_meta[row] = (target << 3) | kind
        if pay is not None:
            self._payload[row] = pay
        heapq.heappush(self._heap, (at << ROW_BITS) | row)

    def _schedule_row(self, at: int, action) -> None:
        # Legacy entry point (unpooled Timeouts, late add_callback
        # joiners): the callable rides in the payload column.
        if at == self._now:
            self._payload_row(K_CALL, 0, action)
        else:
            self._heap_row(at, K_CALL, 0, action)

    def _schedule_event_row(self, event: Event) -> None:
        # ``_payload_row`` inlined: Event.succeed lands here for every
        # triggered event, making this the hottest method-form push.
        free = self._free
        if free:
            row = free.pop()
            self._rows_recycled += 1
        else:
            row = self._top
            if row == self._cap:
                self._compact()
                row = self._top
            self._top = row + 1
        self._c_meta[row] = K_EVENT
        self._payload[row] = event
        self._ring_scheduled += 1
        self._ring.append(row << 1)

    def _grant(self, p: int, waited: int) -> None:
        """Ring-resume a process whose packed resource wait was granted.

        Called by :meth:`~repro.engine.resource.Resource.release`; the
        word occupies the exact ring position the grant event's dispatch
        would have taken on the object kernel.
        """
        self._ring_scheduled += 1
        self._ring.append((waited << VAL_SHIFT) | (p << 3) | _R_VAL)

    # -- flat ops ------------------------------------------------------------
    #
    # A *flat op* replaces the highest-frequency generators with a table
    # entry the kernel steps through directly.  Two op programs exist:
    # fire-and-forget link transmits on the plain fabric (writebacks,
    # sharing writebacks, invalidation+ack rounds; ``flat_transmit``)
    # and whole plain-fabric directory transactions of the target
    # machine (``flat_transact``).  Each op is a plain list with fixed
    # slots; slots 0-10 are the transmit program's state (3-8 double as
    # the current-leg state of a transaction's in-flight message), 11 is
    # the program tag, and 12+ exist only on transaction ops:
    #
    #   0 shell    joinable Event, succeeded when a transmit finishes
    #   1 fabric   the Fabric charged at settle time
    #   2 legs     tuple of (path, nbytes, transmit_ns) legs (transmit)
    #   3 path     current leg's tuple of Links
    #   4 nbytes   current leg's payload size
    #   5 tx_ns    current leg's contention-free transmission time
    #   6 i        links of the current leg acquired so far
    #   7 start    simulated time the current leg started
    #   8 circuit  simulated time the current leg's circuit completed
    #   9 value    the shell's success value (transmit)
    #  10 legidx   index of the current leg (transmit)
    #  11 tag      program state (F_XMIT, or a transaction F_* tag)
    #  12 waiter   process index of the parked caller (-1 until parked)
    #  13 ctx      machine context tuple (see flat_transact)
    #  14 pid      requesting processor
    #  15 block    block number of the access
    #  16 home     the block's home node
    #  17 lock     the block's home-lock Resource
    #  18 plan     directory plan (set by the LOCK step)
    #  19 latency  accumulated contention-free latency_ns
    #  20 service  accumulated memory/owner service_ns
    #  21 invs     spawned invalidation-round shells, or None; while
    #              the join waits, the shells (None once it succeeded,
    #              the failing round's exception once it failed)
    #  22 hri      1 when any invalidation target was remote
    #  23 joins    invalidation rounds the join still waits for
    #
    # An op's timeline mirrors the generator it replaces *step for
    # step*: the start word doubles as the first acquire attempt,
    # every link (and home-lock) grant is one ring word
    # (``(opidx << 3) | _R_FLAT`` here, ``_R_ZERO``/``_R_VAL`` there),
    # every transmission or service sleep is a fresh monotone heap row
    # (kind ``K_FLAT``), and the settle step applies the same
    # per-link/fabric accounting at the same event.  A transmit op ends
    # by succeeding its shell (the ``K_EVENT`` dispatch a finished
    # process produces); a transaction op ends by resuming its parked
    # caller with ``(latency_ns, service_ns)`` inside the final wake --
    # exactly where the generator form's ``return`` resumes the
    # ``yield from`` caller.  Event counts, queue positions, and all
    # statistics are therefore identical to the generator form, which
    # the cross-kernel parity tests pin.  Busy links or home locks park
    # the op as the complement-packed *negative* int
    # ``~((now << PROC_BITS) | opidx)`` so ``Resource.release`` can
    # tell it from a process waiter.  A write waiting on its
    # invalidation rounds joins them with a *counting join* rather
    # than an ``all_of`` Event: each round's shell carries ``~opidx``
    # in its callbacks (see ``Event._dispatch``), the op counts the
    # rounds still out in slot 23, and the last round queues one
    # ``_R_FLAT`` continuation word where ``all_of``'s composite
    # event would have queued its dispatch (see ``_flat_wr_join``).

    def flat_transmit(self, fabric, legs, value: Any = None) -> Event:
        """Post a flattened fire-and-forget transmit; returns the shell.

        ``legs`` is a tuple of ``(path, nbytes, transmit_ns)`` with
        non-empty link paths.  Only valid on flat-capable kernels (see
        ``_flat_capable``); callers fall back to spawning the generator
        twin otherwise, producing the same event sequence.
        """
        shell = Event(self)
        path, nbytes, tx = legs[0]
        op = [shell, fabric, legs, path, nbytes, tx, 0, self._now, 0,
              value, 0, F_XMIT]
        free = self._flat_free
        if free:
            opidx = free.pop()
            self._flat_ops[opidx] = op
        else:
            opidx = len(self._flat_ops)
            if opidx >= (1 << PROC_BITS):  # pragma: no cover - ~1M live
                raise SimulationError(
                    f"too many live flat ops ({opidx}); see PROC_BITS "
                    "in repro.engine.core"
                )
            self._flat_ops.append(op)
        self._flat_posts += 1
        self._blocked += 1
        # The start word doubles as the first acquire attempt, exactly
        # where the generator's start-up resumption would have run.
        self._ring_scheduled += 1
        self._ring.append((opidx << 3) | _R_FLAT)
        return shell

    def flat_transact(self, ctx, pid: int, block: int, home: int,
                      lock, is_write: bool):
        """Start a compiled memory transaction; returns ``FLAT_TX``.

        Called by a machine's ``transact_flat`` from inside the
        requesting process's own resumption.  ``ctx`` is the machine
        context tuple ``(fabric, routes, nprocs, ctrl_bytes,
        data_bytes, ctrl_ns, data_ns, mem_ns, hit_ns,
        inv_round_latency, plan_read, plan_write, machine)``.  This
        only builds the op; the first step -- the request leg's first
        link acquire, or the home-lock attempt on a home-local miss
        (``op[3] is None`` distinguishes the two) -- runs in the
        kernel's ``FLAT_TX`` yield branch, which executes immediately
        after this returns (the caller must ``yield FLAT_TX`` next).
        That is the exact position the generator twin's first
        ``yield`` is handled, and it lets the compiled tier run the
        step natively.  The op resumes the caller with the
        ``(latency_ns, service_ns)`` split when the transaction
        completes.
        """
        op = [None, ctx[0], None, None, 0, 0, 0, 0, 0, None, 0,
              0, -1, ctx, pid, block, home, lock, None, 0, 0, None, 0, 0]
        free = self._flat_free
        if free:
            opidx = free.pop()
            self._flat_ops[opidx] = op
        else:
            opidx = len(self._flat_ops)
            if opidx >= (1 << PROC_BITS):  # pragma: no cover - ~1M live
                raise SimulationError(
                    f"too many live flat ops ({opidx}); see PROC_BITS "
                    "in repro.engine.core"
                )
            self._flat_ops.append(op)
        self._flat_posts += 1
        self.flat_tx += 1
        self._pending_flat_op = opidx
        if pid != home:
            # Request leg pid -> home (control message).
            op[3] = ctx[1][pid * ctx[2] + home]
            op[4] = ctx[3]
            op[5] = ctx[5]
            op[7] = self._now
            op[11] = F_WR_REQ if is_write else F_RD_REQ
        else:
            op[11] = F_WR_LOCK if is_write else F_RD_LOCK
        return FLAT_TX

    def _flat_step(self, opidx: int) -> None:
        """One acquire-or-transmit step of a flat op (ring word pop)."""
        op = self._flat_ops[opidx]
        tag = op[11]
        if tag == F_RD_LOCK:
            self._flat_rd_plan(opidx, op)
            return
        if tag == F_WR_LOCK:
            self._flat_wr_plan(opidx, op)
            return
        if tag == F_WR_WAIT:
            self._flat_wr_joined(opidx, op)
            return
        path = op[3]
        i = op[6]
        if i < len(path):
            link = path[i]
            # Inlined try_acquire (the Acquirable attribute contract),
            # mirroring the kernel's ``yield link`` handling.
            if link.in_use < link.capacity and not link._waiters:
                link.in_use += 1
                link.grants += 1
                op[6] = i + 1
                self._ring_scheduled += 1
                self._ring.append((opidx << 3) | _R_FLAT)
            else:
                link._waiters.append(
                    ~((self._now << PROC_BITS) | opidx)
                )
            return
        # Circuit complete: the transmission sleep, as a fresh monotone
        # heap row -- the position the generator's ``yield tx`` takes.
        op[8] = self._now
        self._heap_row(self._now + op[5], K_FLAT, opidx)

    def _flat_grant(self, opidx: int) -> None:
        """A parked flat op was granted its resource (Resource.release;
        the compiled loop's ``release_held`` does this natively)."""
        # The grant transferred the unit, so the op now holds the link
        # (or home lock); the step word lands at the exact ring position
        # the generator's ``_R_VAL`` resume word would have taken.
        op = self._flat_ops[opidx]
        tag = op[11]
        if tag != F_RD_LOCK and tag != F_WR_LOCK:
            op[6] += 1
        self._ring_scheduled += 1
        self._ring.append((opidx << 3) | _R_FLAT)

    def _flat_wake(self, opidx: int) -> None:
        """Wake step of a flat op (K_FLAT heap row popped).

        For leg tags this is the settle step of a finished
        transmission; for the service tags (MEM/HIT sleeps) it is the
        end of the directory's memory or owner-cache service time, with
        no message to settle.  Transitions run inside this wake event,
        exactly as the generator's resumption runs on to its next
        ``yield``.
        """
        op = self._flat_ops[opidx]
        tag = op[11]
        now = self._now
        if tag == F_XMIT:
            fabric = op[1]
            path = op[3]
            nbytes = op[4]
            tx = op[5]
            circuit = op[8]
            held_ns = now - circuit
            for link in path:
                link.messages += 1
                link.bytes_carried += nbytes
                link.busy_ns += held_ns
                if link._waiters:
                    link.release()
                else:
                    # Uncontended release inlined (this op holds the
                    # link, so in_use >= 1) -- same as
                    # Fabric.settle_fast.
                    link.in_use -= 1
            fabric.messages += 1
            fabric.bytes_transported += nbytes
            fabric.total_latency_ns += tx
            fabric.total_contention_ns += circuit - op[7]
            legs = op[2]
            legidx = op[10] + 1
            if legidx < len(legs):
                # Next leg starts inside this settle step, exactly as
                # the generator's wake resumption runs on to its next
                # ``yield link``.
                path, nbytes, tx = legs[legidx]
                op[3] = path
                op[4] = nbytes
                op[5] = tx
                op[6] = 0
                op[7] = now
                op[10] = legidx
                self._flat_step(opidx)
                return
            # Done: mirror ``_finish`` -- unblock, recycle, succeed the
            # shell (its K_EVENT dispatch is the trailing parity event).
            self._blocked -= 1
            shell = op[0]
            value = op[9]
            self._flat_ops[opidx] = None
            self._flat_free.append(opidx)
            shell.succeed(value)
            return
        # -- transaction wakes --------------------------------------------
        ctx = op[13]
        if tag == F_RD_REQ or tag == F_WR_REQ:
            self._flat_settle(op, now)
            self._flat_lock(opidx, op,
                            F_RD_LOCK if tag == F_RD_REQ else F_WR_LOCK)
            return
        if tag == F_RD_MEM:
            # Memory read served: release the directory, then the data
            # reply (unless the requester is the home node).
            self._flat_unlock(op)
            if op[16] != op[14]:
                self._flat_leg(opidx, op, op[16], op[14], True, F_RD_DATA)
                return
            self._flat_done(opidx, op)
            return
        if tag == F_RD_FWD:
            # Forward delivered to the owner: directory released, owner
            # cache service begins.
            self._flat_settle(op, now)
            self._flat_unlock(op)
            op[20] += ctx[8]
            op[11] = F_RD_HIT
            self._heap_row(now + ctx[8], K_FLAT, opidx)
            return
        if tag == F_RD_HIT:
            self._flat_leg(opidx, op, op[18].source, op[14], True,
                           F_RD_DATA)
            return
        if tag == F_RD_DATA:
            self._flat_settle(op, now)
            plan = op[18]
            if (not plan.from_memory and plan.sharing_writeback
                    and plan.source != op[16]):
                # Illinois: the dirty owner's data also returns to the
                # home -- real traffic, off the critical path.
                op[1].post_fast(plan.source, op[16], ctx[4], name="shwb")
            self._flat_done(opidx, op)
            return
        if tag == F_WR_MEM:
            self._flat_wr_join(opidx, op)
            return
        if tag == F_WR_FWD:
            self._flat_settle(op, now)
            self._flat_wr_join(opidx, op)
            return
        if tag == F_WR_HIT:
            self._flat_leg(opidx, op, op[18].source, op[14], True,
                           F_WR_DATA)
            return
        # F_WR_GRANT / F_WR_DATA: final leg of a write.
        self._flat_settle(op, now)
        self._flat_done(opidx, op)

    # -- flat transaction helpers -----------------------------------------

    def _flat_settle(self, op: list, now: int) -> None:
        """Book one completed transaction leg (Fabric.settle_fast twin)."""
        fabric = op[1]
        path = op[3]
        nbytes = op[4]
        tx = op[5]
        circuit = op[8]
        held_ns = now - circuit
        for link in path:
            link.messages += 1
            link.bytes_carried += nbytes
            link.busy_ns += held_ns
            if link._waiters:
                link.release()
            else:
                link.in_use -= 1
        fabric.messages += 1
        fabric.bytes_transported += nbytes
        fabric.total_latency_ns += tx
        fabric.total_contention_ns += circuit - op[7]
        op[19] += tx

    def _flat_leg(self, opidx: int, op: list, src: int, dst: int,
                  data: bool, tag: int) -> None:
        """Start a message leg and attempt its first link inline."""
        ctx = op[13]
        op[3] = ctx[1][src * ctx[2] + dst]
        if data:
            op[4] = ctx[4]
            op[5] = ctx[6]
        else:
            op[4] = ctx[3]
            op[5] = ctx[5]
        op[6] = 0
        op[7] = self._now
        op[11] = tag
        self._flat_step(opidx)

    def _flat_lock(self, opidx: int, op: list, tag: int) -> None:
        """Attempt the home lock (FIFO; parks complement-packed)."""
        op[11] = tag
        lock = op[17]
        if lock.in_use < lock.capacity and not lock._waiters:
            lock.in_use += 1
            lock.grants += 1
            self._ring_scheduled += 1
            self._ring.append((opidx << 3) | _R_FLAT)
        else:
            lock._waiters.append(~((self._now << PROC_BITS) | opidx))

    def _flat_unlock(self, op: list) -> None:
        """Release the home lock (uncontended release inlined)."""
        lock = op[17]
        if lock._waiters:
            lock.release()
        else:
            lock.in_use -= 1

    def _flat_done(self, opidx: int, op: list) -> None:
        """Complete a transaction: writeback, recycle, resume caller."""
        plan = op[18]
        op[13][12]._post_writeback(op[14], plan.writeback)
        p = op[12]
        result = (op[19], op[20])
        self._flat_ops[opidx] = None
        self._flat_free.append(opidx)
        # The caller resumes inside this wake event -- the position the
        # generator form's ``return`` hands control back to the
        # ``yield from`` caller.
        self._advance(p, result, None)

    def _flat_done_early(self, opidx: int, op: list) -> None:
        """Raced-with-ourselves exit: ``return 0, hit_ns`` twin."""
        self._flat_unlock(op)
        p = op[12]
        result = (0, op[13][8])
        self._flat_ops[opidx] = None
        self._flat_free.append(opidx)
        self._advance(p, result, None)

    def _flat_fail(self, opidx: int, op: list,
                   exc: BaseException) -> None:
        """A plan callout raised: propagate into the parked caller.

        Mirrors the generator form, where the exception unwinds the
        ``yield from`` chain into the caller's frame.
        """
        p = op[12]
        self._flat_ops[opidx] = None
        self._flat_free.append(opidx)
        self._throw(p, exc)

    def _flat_rd_plan(self, opidx: int, op: list) -> None:
        """Home-lock granted on a read: run the directory plan."""
        ctx = op[13]
        try:
            plan = ctx[10](op[14], op[15])
        except BaseException as exc:
            self._flat_fail(opidx, op, exc)
            return
        op[18] = plan
        if plan.hit:  # raced with ourselves; cannot normally happen
            self._flat_done_early(opidx, op)
            return
        if plan.from_memory:
            op[20] += ctx[7]
            op[11] = F_RD_MEM
            self._heap_row(self._now + ctx[7], K_FLAT, opidx)
            return
        # Owned by a remote cache: home forwards, owner supplies.
        source = plan.source
        home = op[16]
        if home != source:
            self._flat_leg(opidx, op, home, source, False, F_RD_FWD)
            return
        self._flat_unlock(op)
        op[20] += ctx[8]
        op[11] = F_RD_HIT
        self._heap_row(self._now + ctx[8], K_FLAT, opidx)

    def _flat_wr_plan(self, opidx: int, op: list) -> None:
        """Home-lock granted on a write: plan, launch invalidations."""
        ctx = op[13]
        try:
            plan = ctx[11](op[14], op[15])
        except BaseException as exc:
            self._flat_fail(opidx, op, exc)
            return
        op[18] = plan
        if plan.fast:  # raced with ourselves; cannot normally happen
            self._flat_done_early(opidx, op)
            return
        if plan.invalidated:
            self._flat_wr_invs(op, plan)
        source = plan.source
        home = op[16]
        if not plan.had_data:
            if plan.from_memory:
                op[20] += ctx[7]
                op[11] = F_WR_MEM
                self._heap_row(self._now + ctx[7], K_FLAT, opidx)
                return
            if home != source:
                self._flat_leg(opidx, op, home, source, False, F_WR_FWD)
                return
        self._flat_wr_join(opidx, op)

    def _flat_wr_invs(self, op: list, plan) -> None:
        """Launch a write's invalidation rounds (plan-time spawn).

        Invalidations go out in parallel with the home-side work.  The
        previous owner (when it supplies the data) is invalidated by
        the forwarded request itself, so it is filtered out here.
        Shared between the Python plan step and the C port, which
        calls it only when ``plan.invalidated`` is non-empty.
        """
        source = plan.source
        inv_targets = [s for s in plan.invalidated if s != source]
        if inv_targets:
            home = op[16]
            machine = op[13][12]
            pid = op[14]
            op[21] = [
                machine._spawn_inv(pid, home, node) for node in inv_targets
            ]
            for node in inv_targets:
                if node != home:
                    op[22] = 1
                    break

    def _flat_wr_join(self, opidx: int, op: list) -> None:
        """Home-side work done: wait for the invalidation rounds.

        Sequential consistency: the home releases the block only after
        every stale copy is gone.  The join is built here -- not at
        plan time -- exactly where the generator form evaluates
        ``all_of(sim, rounds)``, and reproduces that composite event
        for event without allocating it: the op parks as ``~opidx`` in
        each pending round's callbacks (``all_of`` appends its
        ``on_done`` there), a round that already dispatched gets its
        late-joiner event (``_flat_join_late``), and slot 23 counts the
        rounds still out (``all_of``'s ``left``).
        """
        invs = op[21]
        if invs:
            op[11] = F_WR_WAIT
            op[23] = len(invs)
            waiter = ~opidx
            for shell in invs:
                callbacks = shell._callbacks
                if callbacks is None:
                    self._flat_join_late(opidx, shell)
                else:
                    callbacks.append(waiter)
            return
        self._flat_wr_unlock(opidx, op)

    def _flat_join_late(self, opidx: int, shell: Event) -> None:
        """Join a round whose shell already dispatched.

        ``Event.add_callback`` schedules such a late joiner as one
        callable on the ring at the current time; this is that event,
        counting the round when it runs.
        """
        self._payload_row(K_CALL, 0,
                          partial(self._flat_join_round, opidx, shell))

    def _flat_join_round(self, opidx: int, shell: Event) -> None:
        """One invalidation round of a waiting write finished.

        Runs inside the round shell's dispatch (``Event._dispatch``
        meets the parked ``~opidx``) or as its late-joiner event -- the
        two places ``all_of``'s ``on_done`` runs.  The last round, or
        the first failing one, queues the op's continuation word at
        the ring position the composite event's dispatch would take.
        """
        op = self._flat_ops[opidx]
        left = op[23]
        if left <= 0:
            return  # the join already failed; later rounds are moot
        exc = shell._exception
        if exc is not None:
            # The first failing round fails the join.  Rounds still
            # out drop the parked waiter so a recycled op slot can
            # never be counted down by them.
            waiter = ~opidx
            for other in op[21]:
                callbacks = other._callbacks
                if callbacks is not None and waiter in callbacks:
                    callbacks.remove(waiter)
            op[21] = exc
            op[23] = 0
        else:
            left -= 1
            op[23] = left
            if left:
                return
            op[21] = None
        self._ring_scheduled += 1
        self._ring.append((opidx << 3) | _R_FLAT)

    def _flat_wr_joined(self, opidx: int, op: list) -> None:
        """The invalidation join completed: resume the write program."""
        exc = op[21]
        if exc is not None:
            self._flat_fail(opidx, op, exc)
            return
        if op[22]:
            # Contention-free the rounds overlap, so one round's worth
            # of transmission time is genuine latency; queuing beyond
            # that surfaces as contention.
            op[19] += op[13][9]
        self._flat_wr_unlock(opidx, op)

    def _flat_wr_unlock(self, opidx: int, op: list) -> None:
        """Release the directory and launch the write's final leg."""
        self._flat_unlock(op)
        plan = op[18]
        ctx = op[13]
        pid = op[14]
        home = op[16]
        if plan.had_data:
            # Ownership upgrade: permission only, granted by the home.
            if pid != home:
                self._flat_leg(opidx, op, home, pid, False, F_WR_GRANT)
                return
        elif plan.from_memory:
            if home != pid:
                self._flat_leg(opidx, op, home, pid, True, F_WR_DATA)
                return
        else:
            op[20] += ctx[8]
            op[11] = F_WR_HIT
            self._heap_row(self._now + ctx[8], K_FLAT, opidx)
            return
        self._flat_done(opidx, op)

    def _compact(self) -> None:
        """Renumber live rows into a fresh epoch (see module docstring).

        Pending heap entries are gathered in key order -- which *is*
        ``(time, seq)`` order -- so renumbering them ``0..h-1`` keeps
        every tie-break intact, and the sorted key list rebuilt with the
        new row numbers is already a valid heap.  Ring words with the
        packed-resume tag carry no row and pass through unchanged.  All
        containers are mutated in place so the run loop's cached locals
        stay valid across a compaction triggered from arbitrarily deep
        inside a process resumption.
        """
        c_meta = self._c_meta
        payload = self._payload
        entries = sorted(self._heap)
        nheap = len(entries)
        live_rows = [key & ROW_MASK for key in entries]
        ring_words = list(self._ring)
        for word in ring_words:
            if not word & 1:
                live_rows.append(word >> 1)
        live = len(live_rows)
        # Snapshot before overwriting: source and destination rows
        # overlap arbitrarily.
        times = [key >> ROW_BITS for key in entries]
        metas = [c_meta[r] for r in live_rows]
        pays = [payload[r] for r in live_rows]
        cap = self._cap
        while live * 2 > cap:
            cap *= 2
        if cap > (1 << ROW_BITS):  # pragma: no cover - 4G live rows
            raise SimulationError(
                f"row table cannot grow past 2**{ROW_BITS} rows"
            )
        if cap != self._cap:
            grow = cap - self._cap
            c_meta.extend(array("q", [0]) * grow)
            payload.extend([None] * grow)
            self._cap = cap
        for i in range(live):
            c_meta[i] = metas[i]
            payload[i] = pays[i]
        for i in range(live, self._top):
            payload[i] = None
        self._heap[:] = [(times[i] << ROW_BITS) | i for i in range(nheap)]
        ring = self._ring
        ring.clear()
        nxt = nheap
        for word in ring_words:
            if word & 1:
                ring.append(word)
            else:
                ring.append(nxt << 1)
                nxt += 1
        del self._free[:]
        self._top = live
        self._compactions += 1

    # -- processes -----------------------------------------------------------

    def spawn(self, generator: ProcessGenerator,
              name: str = "process") -> SoaProcess:
        """Start a new simulated process (API-compatible with the
        object kernel; returns the joinable shell event)."""
        self._processes_spawned += 1
        shell = SoaProcess(self, name)
        pfree = self._pfree
        if pfree:
            p = pfree.pop()
            self._gens[p] = generator
            self._sends[p] = generator.send
            self._procs[p] = shell
        else:
            p = len(self._gens)
            if p >= (1 << PROC_BITS):
                raise SimulationError(
                    f"too many live processes for the SoA kernel "
                    f"({p}); see PROC_BITS in repro.engine.core"
                )
            self._gens.append(generator)
            self._sends.append(generator.send)
            self._procs.append(shell)
        self._blocked += 1
        # Start-up occupies the same ring position the object kernel's
        # ``_schedule(now, self._start)`` would have taken.
        self._ring_scheduled += 1
        self._ring.append((p << 3) | _R_NONE)
        return shell

    def _finish(self, p: int, value: Any) -> None:
        """Generator returned: free the slot, trigger the shell."""
        self._blocked -= 1
        shell = self._procs[p]
        self._gens[p] = None
        self._sends[p] = None
        self._procs[p] = None
        self._pfree.append(p)
        shell.succeed(value)

    def _crash(self, p: int, exc: BaseException) -> None:
        """Generator raised: mirror ``Process._step`` failure semantics."""
        self._blocked -= 1
        shell = self._procs[p]
        self._gens[p] = None
        self._sends[p] = None
        self._procs[p] = None
        self._pfree.append(p)
        if self.fail_fast:
            if isinstance(exc, ReproError):
                # Simulator errors keep their type so callers can catch
                # e.g. RetryLimitError specifically.
                raise exc
            raise SimulationError(
                f"process {shell.name!r} raised {exc!r} at t={self._now}"
            ) from exc
        shell.fail(exc)

    def _handle_yield(self, p: int, y: Any) -> None:
        """Schedule process ``p``'s next resumption for yield ``y``.

        Method-form twin of the run loop's inline dispatch, used when a
        process is resumed from a handler context (event callbacks,
        pooled-timeout expiry, the guarded loop).  Every branch lands
        the resumption at the exact queue position the object kernel
        would have used.
        """
        cls = y.__class__
        if cls is int:
            if y > 0:
                self._heap_row(self._now + y, K_RESUME_NONE, p)
            elif y == 0:
                self._ring_scheduled += 1
                self._ring.append((p << 3) | _R_NONE)
            else:
                self._blocked -= 1
                raise SimulationError(
                    f"process {self._procs[p].name!r} yielded negative "
                    f"delay {y}"
                )
            return
        if cls is tuple:
            # ``yield (transact_flat, pid, addr, is_write)``: a
            # deferred flat-transaction request.  The kernel makes the
            # call itself -- the compiled tier recognizes the
            # registered callable (see ``_flat_mctx``) and builds the
            # op natively without entering the interpreter.
            if y[0](y[1], y[2], y[3]) is not FLAT_TX:
                self._blocked -= 1
                raise SimulationError(
                    f"process {self._procs[p].name!r} yielded a tuple "
                    "whose call did not start a flat transaction"
                )
            y = FLAT_TX
        if y is FLAT_TX:
            # Record the caller so completion can resume it (see
            # _flat_done), then run the op's first step -- the request
            # leg's first link, or the home-lock attempt on a
            # home-local miss.
            opidx = self._pending_flat_op
            op = self._flat_ops[opidx]
            op[12] = p
            if op[3] is None:
                self._flat_lock(opidx, op, op[11])
            else:
                self._flat_step(opidx)
            return
        if isinstance(y, Acquirable):
            # Inlined try_acquire (the Acquirable attribute contract).
            if y.in_use < y.capacity and not y._waiters:
                y.in_use += 1
                y.grants += 1
                self._ring_scheduled += 1
                self._ring.append((p << 3) | _R_ZERO)
            else:
                y._waiters.append((self._now << PROC_BITS) | p)
            return
        if isinstance(y, Event):
            callbacks = y._callbacks
            if callbacks is None:
                self._payload_row(K_EVWAIT, p, y)
            else:
                callbacks.append(p)
            return
        if y is TURN:
            self._ring_scheduled += 1
            self._ring.append((p << 3) | _R_ZERO)
            return
        self._blocked -= 1
        raise SimulationError(
            f"process {self._procs[p].name!r} yielded {y!r}; processes "
            "must yield an Event, a Resource, an int delay, or TURN"
        )

    def _advance(self, p: int, value: Any,
                 exc: Optional[BaseException]) -> None:
        """Resume process ``p`` synchronously from a handler context.

        Event callbacks run inside the dispatching event (matching the
        object kernel, so event counts agree); this is the resumption
        they use for int waiters.
        """
        if exc is not None:
            self._throw(p, exc)
            return
        try:
            y = self._sends[p](value)
        except StopIteration as stop:
            self._finish(p, stop.value)
            return
        except BaseException as e:
            self._crash(p, e)
            return
        self._handle_yield(p, y)

    def _throw(self, p: int, exc: BaseException) -> None:
        try:
            y = self._gens[p].throw(exc)
        except StopIteration as stop:
            self._finish(p, stop.value)
            return
        except BaseException as e:
            self._crash(p, e)
            return
        self._handle_yield(p, y)

    # -- profiling -----------------------------------------------------------

    def engine_profile(self) -> Dict[str, Any]:
        profile = super().engine_profile()
        # Heap pushes are not separately counted on the hot path (the
        # object kernel reuses its sequence counter for this); every
        # push was either already popped or is still pending.
        heap_executed = self.events_executed - self._ring_executed
        profile["heap_pushes"] = heap_executed + len(self._heap)
        profile["rows_recycled"] = self._rows_recycled
        profile["compactions"] = self._compactions
        profile["flat_posts"] = self._flat_posts
        profile["flat_tx"] = self.flat_tx
        profile["row_capacity"] = self._cap
        profile["rows_live"] = len(self._heap) + sum(
            1 for word in self._ring if not word & 1
        )
        return profile

    # -- run loops -----------------------------------------------------------

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None,
            until_ns: Optional[int] = None) -> int:
        """Execute events; see :meth:`Simulator.run` for the contract."""
        if until_ns is not None:
            if until is not None:
                raise SimulationError(
                    "pass either until or until_ns, not both"
                )
            until = until_ns
        if max_events is not None and max_events <= 0:
            raise SimulationError(
                f"max_events must be positive, got {max_events}"
            )
        if until is None and max_events is None:
            return self._run_fast()
        return self._run_guarded(until, max_events)

    def _run_fast(self) -> int:
        """The hot loop: pop words, drive generators, push words.

        Heap rows at the current time run before ring words (same
        argument as the object kernel's ring design note).  The common
        resume tags and the single-int-waiter event dispatch are fully
        inlined -- the deliberate duplication with :meth:`_handle_yield`
        buys one less Python frame per event.  Locals cache every
        container; all of them are mutated in place (compaction grows
        the array rather than replacing it), so the cached references
        stay valid across anything a process resumption does.  Ring and
        recycle tallies accumulate in locals and flush once on exit;
        ``self._top`` stays an attribute because nested method-form
        pushes (``Event.succeed``, ``release``, ``spawn``) share the
        allocator mid-iteration.
        """
        heap = self._heap
        ring = self._ring
        free = self._free
        c_meta = self._c_meta
        payload = self._payload
        sends = self._sends
        heappop = heapq.heappop
        heappush = heapq.heappush
        ring_popleft = ring.popleft
        ring_append = ring.append
        free_append = free.append
        free_pop = free.pop
        now = self._now
        executed = 0
        ring_executed = 0
        ring_scheduled = 0
        recycled = 0
        try:
            while True:
                # -- pop: decode one event into (p, value) ------------
                e = -1
                if heap:
                    key = heap[0]
                    at = key >> ROW_BITS
                    if at <= now:
                        if at < now:
                            _time_went_backwards(at, now)
                        heappop(heap)
                        if heap and heap[0] <= key:
                            _key_regressed(key, heap[0], now)
                    elif ring:
                        e = ring_popleft()
                        ring_executed += 1
                    else:
                        heappop(heap)
                        if heap and heap[0] <= key:
                            _key_regressed(key, heap[0], now)
                        now = self._now = at
                elif ring:
                    e = ring_popleft()
                    ring_executed += 1
                else:
                    break
                executed += 1
                if e < 0:
                    # Heap row: sleeps, flat-op wakes, and legacy
                    # callables live on the heap.
                    row = key & ROW_MASK
                    free_append(row)
                    meta = c_meta[row]
                    kind = meta & 7
                    if kind == 0:        # K_RESUME_NONE
                        p = meta >> 3
                        value = None
                    elif kind == 6:      # K_FLAT
                        self._flat_wake(meta >> 3)
                        continue
                    else:                # K_CALL
                        action = payload[row]
                        payload[row] = None
                        action()
                        continue
                elif e & 1:
                    # Packed resume word: no row, pure decode.
                    tag = e & 7
                    if tag == _R_NONE:
                        p = e >> 3
                        value = None
                    elif tag == _R_ZERO:
                        p = e >> 3
                        value = 0
                    elif tag == _R_VAL:
                        p = (e >> 3) & PROC_MASK
                        value = e >> VAL_SHIFT
                    else:                # _R_FLAT
                        self._flat_step(e >> 3)
                        continue
                else:
                    # Payload row.  The row is returned to the free
                    # list before dispatch -- everything it held is
                    # read first.
                    row = e >> 1
                    free_append(row)
                    meta = c_meta[row]
                    kind = meta & 7
                    if kind == 3:        # K_EVENT
                        ev = payload[row]
                        payload[row] = None
                        callbacks = ev._callbacks
                        if (callbacks is not None
                                and len(callbacks) == 1
                                and callbacks[0].__class__ is int
                                and callbacks[0] >= 0
                                and ev._exception is None):
                            # Sole waiter is a process: resume it
                            # directly, inside this dispatch event
                            # (same event count as the object kernel's
                            # synchronous callback).
                            ev._callbacks = None
                            p = callbacks[0]
                            value = ev.value
                        else:
                            ev._dispatch()
                            continue
                    elif kind == 4:      # K_EVWAIT
                        ev = payload[row]
                        payload[row] = None
                        if ev._exception is not None:
                            self._throw(meta >> 3, ev._exception)
                            continue
                        p = meta >> 3
                        value = ev.value
                    else:                # K_CALL
                        action = payload[row]
                        payload[row] = None
                        action()
                        continue
                # -- drive: resume the generator, handle its yield ----
                try:
                    y = sends[p](value)
                except StopIteration as stop:
                    self._finish(p, stop.value)
                    continue
                except BaseException as exc:
                    self._crash(p, exc)
                    continue
                ycls = y.__class__
                if ycls is int:
                    if y > 0:
                        # Plain sleep: future heap row at the queue
                        # position a Timeout's expiry would have taken.
                        at = now + y
                        row = self._top
                        if row == self._cap:
                            self._compact()
                            row = self._top
                        self._top = row + 1
                        c_meta[row] = p << 3
                        heappush(heap, (at << ROW_BITS) | row)
                        continue
                    if y < 0:
                        self._blocked -= 1
                        raise SimulationError(
                            f"process {self._procs[p].name!r} yielded "
                            f"negative delay {y}"
                        )
                    # Zero-delay sleep: same-time redispatch via the
                    # ring, as a packed word.
                    ring_append((p << 3) | _R_NONE)
                    ring_scheduled += 1
                    continue
                if ycls is tuple:
                    # ``yield (transact_flat, pid, addr, is_write)``:
                    # a deferred flat-transaction request.  The kernel
                    # makes the call itself -- the compiled tier
                    # recognizes the registered callable (see
                    # ``_flat_mctx``) and builds the op natively
                    # without entering the interpreter.
                    if y[0](y[1], y[2], y[3]) is not FLAT_TX:
                        self._blocked -= 1
                        raise SimulationError(
                            f"process {self._procs[p].name!r} yielded "
                            "a tuple whose call did not start a flat "
                            "transaction"
                        )
                    y = FLAT_TX
                if y is FLAT_TX:
                    # ``yield machine.transact_flat(...)``: record the
                    # caller so completion can resume it (see
                    # _flat_done), then run the op's first step.
                    opidx = self._pending_flat_op
                    op = self._flat_ops[opidx]
                    op[12] = p
                    if op[3] is None:
                        self._flat_lock(opidx, op, op[11])
                    else:
                        self._flat_step(opidx)
                    continue
                if isinstance(y, Acquirable):
                    # ``yield resource``: inlined try_acquire, else park
                    # as a packed (wait_start << PROC_BITS) | p waiter.
                    if y.in_use < y.capacity and not y._waiters:
                        y.in_use += 1
                        y.grants += 1
                        ring_append((p << 3) | _R_ZERO)
                        ring_scheduled += 1
                    else:
                        y._waiters.append((now << PROC_BITS) | p)
                    continue
                if isinstance(y, Event):
                    callbacks = y._callbacks
                    if callbacks is None:
                        # Already dispatched: resume on the next queue
                        # step at the current time.
                        if free:
                            row = free_pop()
                            recycled += 1
                        else:
                            row = self._top
                            if row == self._cap:
                                self._compact()
                                row = self._top
                            self._top = row + 1
                        c_meta[row] = (p << 3) | 4   # K_EVWAIT
                        payload[row] = y
                        ring_append(row << 1)
                        ring_scheduled += 1
                    else:
                        callbacks.append(p)
                    continue
                if y is TURN:
                    ring_append((p << 3) | _R_ZERO)
                    ring_scheduled += 1
                    continue
                self._blocked -= 1
                raise SimulationError(
                    f"process {self._procs[p].name!r} yielded {y!r}; "
                    "processes must yield an Event, a Resource, an int "
                    "delay, or TURN"
                )
        finally:
            self.events_executed += executed
            self._ring_executed += ring_executed
            self._ring_scheduled += ring_scheduled
            self._rows_recycled += recycled
        if self._blocked > 0:
            raise DeadlockError(self._blocked, self._now)
        return self._now

    def _execute_row(self, row: int) -> None:
        """Method-form row dispatch for the guarded loop."""
        meta = self._c_meta[row]
        kind = meta & 7
        payload = self._payload
        if kind == 0:
            self._advance(meta >> 3, None, None)
        elif kind == 6:
            self._flat_wake(meta >> 3)
        elif kind == 3:
            ev = payload[row]
            payload[row] = None
            ev._dispatch()
        elif kind == 4:
            ev = payload[row]
            payload[row] = None
            self._advance(meta >> 3, ev.value, ev._exception)
        else:
            action = payload[row]
            payload[row] = None
            action()

    def _execute_word(self, e: int) -> None:
        """Method-form ring-word dispatch for the guarded loop."""
        if e & 1:
            tag = e & 7
            if tag == _R_NONE:
                self._advance(e >> 3, None, None)
            elif tag == _R_ZERO:
                self._advance(e >> 3, 0, None)
            elif tag == _R_VAL:
                self._advance((e >> 3) & PROC_MASK, e >> VAL_SHIFT, None)
            else:
                self._flat_step(e >> 3)
        else:
            row = e >> 1
            self._free.append(row)
            self._execute_row(row)

    def _run_guarded(self, until: Optional[int],
                     max_events: Optional[int]) -> int:
        """Word-based loop with horizon and watchdog checks."""
        heap = self._heap
        ring = self._ring
        free = self._free
        executed = 0
        now = self._now
        while True:
            key = 0
            if heap:
                key = heap[0]
                at = key >> ROW_BITS
                use_ring = at > now and bool(ring)
                if use_ring:
                    at = now
            elif ring:
                use_ring = True
                at = now
            else:
                break
            if until is not None and at > until:
                self._now = until
                return until
            if max_events is not None and executed >= max_events:
                raise WatchdogError(
                    self._now, executed, self._blocked,
                    len(heap) + len(ring)
                )
            self.events_executed += 1
            executed += 1
            if use_ring:
                self._ring_executed += 1
                self._execute_word(ring.popleft())
            else:
                if at < now:
                    _time_went_backwards(at, now)
                heapq.heappop(heap)
                if heap and heap[0] <= key:
                    _key_regressed(key, heap[0], now)
                now = self._now = at
                row = key & ROW_MASK
                free.append(row)
                self._execute_row(row)
        if until is None and self._blocked > 0:
            raise DeadlockError(self._blocked, self._now)
        if until is not None:
            self._now = max(self._now, until)
        return self._now
