"""Core discrete-event machinery: clock, events, processes.

Simulated processes are plain Python generators.  A process advances by
``yield``-ing :class:`Event` objects; the engine resumes it (with the
event's value sent into the generator) once the event triggers.  A
generator may also delegate with ``yield from`` to compose behaviour,
which the machine models use heavily: an application generator delegates
to a processor generator which delegates to cache/network generators.

Design notes
------------
* Time is an integer nanosecond count (see :mod:`repro.units`).
* Pending *future* work lives in a binary heap keyed by
  ``(time, sequence)`` so same-time events fire in schedule order --
  this makes every run deterministic, which the tests rely on.
* Work scheduled at the *current* time -- event dispatches from
  :meth:`Event.succeed`, zero-delay timeouts, process start-ups --
  bypasses the heap through a FIFO ring (a ``deque``).  This preserves
  the exact ``(time, sequence)`` execution order of the heap-only
  engine: every heap entry for time ``t`` was necessarily pushed while
  ``now < t`` (once the clock reaches ``t`` a same-time schedule goes
  to the ring instead), so its sequence number is smaller than that of
  any ring entry created at ``t``.  The run loop therefore drains all
  heap entries at ``now`` before touching the ring, and the ring is
  FIFO, which is sequence order.
* Events trigger *immediately* (callbacks run synchronously from
  ``succeed``) only if the engine is not mid-callback for that event;
  to keep semantics simple we always defer callbacks through the ring
  at the current time.  ``succeed`` is therefore safe to call from any
  context, including from inside another callback.
* When a checker attaches an ``on_event`` hook (the determinism
  digest) the engine runs the legacy heap-only path so every action
  carries a real ``(time, seq)`` pair for the hook; both paths execute
  identical event sequences.
* Event-time monotonicity is checked by every run loop itself, on
  every kernel: a popped heap entry must not lie in the past and must
  sit strictly below the new heap root (a duplicated or reordered
  entry fails this), and the heap push entry points refuse a schedule
  into the past.  Violations raise
  :class:`~repro.errors.InvariantError` for the ``monotonicity``
  checker, which only reports the count.
* ``Timeout`` objects created through :meth:`Simulator.timeout` are
  pooled: after a timeout expires and its callbacks have run, the
  object is recycled for the next ``timeout()`` call.  Internal code
  never touches a timeout after resuming from it, which makes this
  safe; holding a reference to an *expired* timeout (e.g. registering
  a late callback on it) is not supported for pooled timeouts.
* Two allocation-free yield forms exist for the hottest waits.  A
  process may ``yield <int>`` for a plain sleep nobody else observes
  (equivalent to ``yield sim.timeout(n)``, minus the Timeout object),
  and may ``yield TURN`` after taking a free resource synchronously
  via ``Resource.try_acquire`` (equivalent to yielding the granted
  event).  Both re-enqueue the process at exactly the queue position
  the event-based form would have used, so the executed event sequence
  -- and therefore every simulated result -- is identical.
* A process may also ``yield`` an :class:`Acquirable` (a
  :class:`~repro.engine.resource.Resource`) directly; the engine then
  resolves the grant in whichever way is cheapest for the running
  kernel.  On this object kernel a free resource behaves exactly like
  the ``try_acquire`` + ``TURN`` pair and a busy one exactly like
  yielding ``request()`` -- same scheduled actions, same ``(time,
  seq)`` positions, so instrumented digests are unchanged.  The
  struct-of-arrays kernel (:mod:`repro.engine.soa`) instead parks the
  process as a packed integer in the resource's waiter queue, which is
  why the call sites moved to this form.
* This module is the *object* kernel.  The un-instrumented fast path
  normally runs on the struct-of-arrays kernel in
  :mod:`repro.engine.soa`; use :func:`repro.engine.make_simulator` to
  select one.  Whenever a checker attaches an ``on_event`` hook the
  object kernel is used regardless, so the hook always observes real
  ``(time, seq)`` actions.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional

from ..errors import (
    DeadlockError,
    InvariantError,
    ReproError,
    SimulationError,
    WatchdogError,
)

#: Type alias for simulated-process generators.
ProcessGenerator = Generator["Event", Any, Any]


class _Turn:
    """Sentinel a generator yields after a synchronous resource grant.

    When a :class:`~repro.engine.resource.Resource` is free, the
    requester may take it synchronously (``try_acquire``) and then
    ``yield TURN`` instead of yielding a granted :class:`Event`.  The
    engine re-enqueues the process at the exact queue position the
    event's dispatch would have occupied -- the executed event sequence
    is identical to the event-based grant -- but no Event, callback
    list, or bound-method allocation happens.  The process resumes with
    a value of ``0`` (the wait duration of an immediate grant).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TURN"


#: The singleton yielded for synchronous grants (see :class:`_Turn`).
TURN = _Turn()


class _FlatTx:
    """Sentinel yielded by a caller whose memory transaction runs as a
    flat op.

    On a flat-capable kernel a machine may compile a whole directory
    transaction into a tag-dispatched table entry
    (:meth:`repro.engine.soa.SoaSimulator.flat_transact`).  The caller
    then yields this sentinel instead of delegating to the transaction
    generator; the kernel parks the process on the op and resumes it
    with the transaction's ``(latency_ns, service_ns)`` tuple when the
    op completes -- at the exact event the generator form's ``return``
    would have resumed it, so the executed event sequence is identical.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FLAT_TX"


#: The singleton yielded after ``flat_transact`` (see :class:`_FlatTx`).
FLAT_TX = _FlatTx()


class Acquirable:
    """Marker base for counted FIFO resources a process may ``yield``.

    Subclasses (:class:`~repro.engine.resource.Resource`) expose the
    grant protocol both kernels rely on -- ``in_use``, ``capacity``,
    ``_waiters``, ``try_acquire()`` and ``request()`` -- and the SoA
    kernel inlines the attribute form of ``try_acquire`` on its hot
    path, so the attribute names are part of the contract.  The marker
    lives here (rather than next to Resource) because the process-step
    dispatch below must recognize it without importing the resource
    module, which imports this one.
    """

    __slots__ = ()


#: Bits a packed resource waiter reserves for the process index: the
#: SoA kernel parks a waiting process in a Resource's queue as the
#: integer ``(wait_start_ns << PROC_BITS) | process_index`` instead of
#: allocating a request Event.  20 bits caps *live* (not total)
#: processes at ~1M, far beyond any simulated machine here; spawn
#: raises cleanly at the limit.
PROC_BITS = 20
PROC_MASK = (1 << PROC_BITS) - 1


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    triggers it exactly once.  Processes waiting on the event resume at
    the simulated time of the trigger with ``value`` sent into their
    generator (or the exception thrown into it).
    """

    __slots__ = ("sim", "_callbacks", "triggered", "value", "_exception")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: Optional[List[Callable[[Event], None]]] = []
        self.triggered = False
        self.value: Any = None
        self._exception: Optional[BaseException] = None

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self.triggered = True
        self.value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes get the exception thrown into their generator.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self.triggered = True
        self._exception = exception
        self.sim._schedule_event(self)
        return self

    # -- waiting ------------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event triggers.

        If the event already ran its callbacks, the callback fires on the
        next queue step at the current time (never synchronously).
        """
        if self._callbacks is None:
            # Already dispatched: schedule a late joiner.
            self.sim._schedule(self.sim._now, partial(callback, self))
        else:
            self._callbacks.append(callback)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                # Under the SoA kernel a waiting process is parked as a
                # plain int (its process index), and a flat transaction
                # op joining this event as one of its invalidation
                # rounds is parked as the complement ``~opidx``
                # (negative, so it cannot collide with a process
                # index); the object kernel only ever registers
                # callables, so both branches are dead there.
                if callback.__class__ is int:
                    if callback >= 0:
                        self.sim._advance(
                            callback, self.value, self._exception
                        )
                    else:
                        self.sim._flat_join_round(~callback, self)
                else:
                    callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay.

    Timeouts obtained from :meth:`Simulator.timeout` are recycled after
    they expire (see the module design notes); constructing ``Timeout``
    directly yields an unpooled one-shot object.
    """

    __slots__ = ("_expire_bound",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None,
                 _pooled: bool = False):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.sim = sim
        self._callbacks = []
        self.triggered = True  # nobody may succeed() it again
        self.value = value
        self._exception = None
        self._expire_bound = self._expire_pooled if _pooled else self._dispatch
        sim._schedule(sim._now + delay, self._expire_bound)

    def _expire_pooled(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                if callback.__class__ is int:
                    # SoA-kernel waiter (see Event._dispatch).
                    self.sim._advance(callback, self.value, None)
                else:
                    callback(self)
            callbacks.clear()
        else:
            callbacks = []
        # Reset and return to the pool; the callbacks list is reused.
        self._callbacks = callbacks
        self.value = None
        self.sim._timeout_pool.append(self)


class Process(Event):
    """A simulated process driving a generator.

    The process is itself an :class:`Event` that triggers when the
    generator returns; its ``value`` is the generator's return value.
    Other processes can therefore ``yield`` a process to join it.
    """

    __slots__ = ("_generator", "name", "_waiter", "_resume_zero",
                 "_resume_none")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "process"):
        self.sim = sim
        self._callbacks = []
        self.triggered = False
        self.value = None
        self._exception = None
        self._generator = generator
        self.name = name
        # Bind once: ``_step`` registers the waiter on every yielded
        # event, and attribute access on a method would allocate a fresh
        # bound method each time.
        self._waiter = self._on_wait_done
        # Reusable resumptions for ``yield TURN`` (immediate grants)
        # and ``yield <int>`` (plain sleeps).
        self._resume_zero = partial(self._step, 0, None)
        self._resume_none = partial(self._step, None, None)
        sim._blocked += 1
        sim._schedule(sim._now, self._start)

    def _start(self) -> None:
        self._step(None, None)

    def _on_wait_done(self, event: Event) -> None:
        if event._exception is not None:
            self._step(None, event._exception)
        else:
            self._step(event.value, None)

    def _step(self, value: Any, exception: Optional[BaseException]) -> None:
        sim = self.sim
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            sim._blocked -= 1
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._blocked -= 1
            if sim.fail_fast:
                if isinstance(exc, ReproError):
                    # Simulator errors keep their type so callers can
                    # catch e.g. RetryLimitError specifically.
                    raise
                raise SimulationError(
                    f"process {self.name!r} raised {exc!r} at t={sim.now}"
                ) from exc
            self.fail(exc)
            return
        if type(target) is int:
            # Plain sleep: resume ``target`` ns from now, at the queue
            # position a Timeout's expiry action would have occupied --
            # without allocating (or pooling) a Timeout at all.
            if target < 0:
                sim._blocked -= 1
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {target}"
                )
            sim._schedule(sim._now + target, self._resume_none)
            return
        if target is TURN:
            # Synchronous grant: resume on the next queue step at the
            # position an event dispatch would have taken.
            sim._schedule(sim._now, self._resume_zero)
            return
        if isinstance(target, Event):
            callbacks = target._callbacks
            if callbacks is None:
                # Already dispatched: resume on the next queue step.
                sim._schedule(sim._now, partial(self._waiter, target))
            else:
                callbacks.append(self._waiter)
            return
        if isinstance(target, Acquirable):
            # Kernel-resolved resource grant (``yield resource``).  A
            # free resource behaves exactly like the try_acquire + TURN
            # pair; a busy one exactly like yielding ``request()`` --
            # the scheduled actions (and thus instrumented digests) are
            # identical to the old call-site spelling.
            if target.try_acquire():
                sim._schedule(sim._now, self._resume_zero)
            else:
                target.request()._callbacks.append(self._waiter)
            return
        sim._blocked -= 1
        raise SimulationError(
            f"process {self.name!r} yielded {target!r}; processes must "
            "yield an Event, a Resource, an int delay, or TURN"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "running"
        return f"<Process {self.name} {state}>"


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.spawn(my_generator())
        sim.run()

    ``run`` executes events until the queue drains (or an optional time
    horizon).  If the queue drains while spawned processes are still
    blocked, a :class:`DeadlockError` is raised -- that always indicates
    a bug in a machine model or application (e.g. a barrier nobody
    releases).
    """

    #: Kernel name reported in profiles and result metadata.  This
    #: class is the object kernel; :class:`repro.engine.soa.SoaSimulator`
    #: overrides it.
    kernel = "object"

    #: Whether this kernel executes flattened leaf resumes (flat ops,
    #: see :meth:`repro.engine.soa.SoaSimulator.flat_transmit`).  Call
    #: sites that can post one check this flag and fall back to the
    #: generator form on the object kernel -- both produce the same
    #: event sequence.
    _flat_capable = False

    def __init__(self, fail_fast: bool = True, checkers=()):
        self._now = 0
        self._queue: List = []
        self._fifo: deque = deque()
        self._sequence = 0
        self._blocked = 0
        self._timeout_pool: List[Timeout] = []
        #: When True (default) an exception escaping a process aborts the
        #: whole simulation immediately instead of failing the process
        #: event silently.
        self.fail_fast = fail_fast
        #: Count of low-level scheduler steps; exposed because the paper's
        #: "speed of simulation" comparison is about event counts.
        self.events_executed = 0
        # Allocation-light profiling counters (always maintained; plain
        # integer bumps are far cheaper than the allocations they count).
        self._ring_scheduled = 0
        self._timeouts_issued = 0
        self._timeouts_pooled = 0
        self._processes_spawned = 0
        self._ring_executed = 0
        #: Sanitizer checkers observing this engine (see
        #: :mod:`repro.checkers`).  Only their ``on_event`` hooks are
        #: dispatched here; machine models wire the rest.
        from ..checkers.base import Checker
        self.checkers = tuple(checkers)
        self._event_hooks = tuple(
            checker.on_event for checker in self.checkers
            if getattr(type(checker), "on_event", None)
            not in (None, Checker.on_event)
        )
        #: The determinism checker (first checker exposing
        #: ``state_digest``), resolved once so :meth:`state_digest` is a
        #: plain delegation instead of a per-call ``getattr`` scan.
        self._determinism = None
        for checker in self.checkers:
            if getattr(checker, "state_digest", None) is not None:
                self._determinism = checker
                break
        #: True when ``on_event`` hooks are attached: the engine then
        #: runs the legacy heap-only path so every action carries a real
        #: ``(time, seq)`` pair for the hooks.
        self._instrumented = bool(self._event_hooks)
        if not self._instrumented:
            # Shadow the hooked scheduling methods with the ring-aware
            # fast versions; instance attributes win over class methods.
            self._schedule = self._schedule_fast
            self._schedule_event = self._schedule_event_fast

    def state_digest(self) -> Optional[str]:
        """Rolling execution digest, or None without a determinism checker.

        Two runs of the same seed and configuration must return the same
        value -- the property the golden-digest regression tests gate.
        """
        if self._determinism is None:
            return None
        return self._determinism.state_digest()

    def engine_profile(self) -> Dict[str, Any]:
        """Snapshot of the engine's internal activity counters.

        Exposed behind the CLI's ``--profile-engine`` flag and the
        service ``/stats`` endpoint; the counters themselves are
        maintained unconditionally (plain integer bumps).  ``heap_pops``
        / ``ring_pops`` break executed events out by queue;
        ``rows_recycled`` counts free-list row reuse and is only
        non-zero on the SoA kernel (the object kernel has no row table).
        """
        return {
            "kernel": self.kernel,
            "events_executed": self.events_executed,
            "ring_executed": self._ring_executed,
            "heap_executed": self.events_executed - self._ring_executed,
            "heap_pops": self.events_executed - self._ring_executed,
            "ring_pops": self._ring_executed,
            "heap_pushes": self._sequence,
            "ring_scheduled": self._ring_scheduled,
            "rows_recycled": 0,
            "compactions": 0,
            "flat_posts": 0,
            "flat_tx": 0,
            "timeouts_issued": self._timeouts_issued,
            "timeouts_pooled": self._timeouts_pooled,
            "timeout_pool_size": len(self._timeout_pool),
            "processes_spawned": self._processes_spawned,
            "instrumented": int(self._instrumented),
        }

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling primitives ----------------------------------------------

    def _schedule(self, at: int, action: Callable[[], None]) -> None:
        # Hooked (legacy) path: every action goes through the heap with
        # a real sequence number.  Un-instrumented simulators shadow
        # this with :meth:`_schedule_fast` in ``__init__``.
        if at < self._now:
            _past_schedule(at, self._now)
        self._sequence += 1
        heapq.heappush(self._queue, (at, self._sequence, action))

    def _schedule_fast(self, at: int, action: Callable[[], None]) -> None:
        if at == self._now:
            self._ring_scheduled += 1
            self._fifo.append(action)
        else:
            if at < self._now:
                _past_schedule(at, self._now)
            self._sequence += 1
            heapq.heappush(self._queue, (at, self._sequence, action))

    def _schedule_event(self, event: Event) -> None:
        self._schedule(self._now, event._dispatch)

    def _schedule_event_fast(self, event: Event) -> None:
        self._ring_scheduled += 1
        self._fifo.append(event._dispatch)

    # -- public API ----------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` ns from now."""
        self._timeouts_issued += 1
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay}")
            self._timeouts_pooled += 1
            timeout = pool.pop()
            timeout.value = value
            self._schedule(self._now + delay, timeout._expire_bound)
            return timeout
        return Timeout(self, delay, value, _pooled=True)

    def spawn(self, generator: ProcessGenerator, name: str = "process") -> Process:
        """Start a new simulated process."""
        self._processes_spawned += 1
        return Process(self, generator, name)

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None,
            until_ns: Optional[int] = None) -> int:
        """Execute events; return the final simulated time.

        :param until: optional horizon; events at times strictly greater
            than ``until`` are left in the queue and the clock stops at
            ``until``.
        :param until_ns: alias for ``until`` (they may not both be set).
        :param max_events: watchdog budget -- if this many events execute
            within this ``run`` call without the queue draining, a
            :class:`~repro.errors.WatchdogError` is raised with progress
            diagnostics.  This is the defense against livelock (e.g. a
            retry loop that never converges), which -- unlike deadlock --
            keeps the queue busy forever and would otherwise hang the
            host process.
        :raises DeadlockError: the queue drained with blocked processes.
        :raises WatchdogError: the ``max_events`` budget was exhausted.
        """
        if until_ns is not None:
            if until is not None:
                raise SimulationError("pass either until or until_ns, not both")
            until = until_ns
        if max_events is not None and max_events <= 0:
            raise SimulationError(
                f"max_events must be positive, got {max_events}"
            )
        if self._instrumented:
            return self._run_hooked(until, max_events)
        if until is None and max_events is None:
            return self._run_fast()
        return self._run_guarded(until, max_events)

    def _run_fast(self) -> int:
        """Checker-free loop: no hook dispatch, no horizon/watchdog checks.

        Heap entries at the current time run before ring entries (see
        the module design notes for why that reproduces ``(time, seq)``
        order exactly).
        """
        queue = self._queue
        fifo = self._fifo
        fifo_popleft = fifo.popleft
        heappop = heapq.heappop
        executed = 0
        ring_executed = 0
        now = self._now
        try:
            while True:
                if queue:
                    at = queue[0][0]
                    if at <= now or not fifo:
                        if at < now:
                            _time_went_backwards(at, now)
                        entry = heappop(queue)
                        _check_root(queue, entry, now)
                        now = self._now = at
                        executed += 1
                        entry[2]()
                        continue
                elif not fifo:
                    break
                action = fifo_popleft()
                executed += 1
                ring_executed += 1
                action()
        finally:
            self.events_executed += executed
            self._ring_executed += ring_executed
        if self._blocked > 0:
            raise DeadlockError(self._blocked, self._now)
        return self._now

    def _run_guarded(self, until: Optional[int],
                     max_events: Optional[int]) -> int:
        """Ring-aware loop with horizon and watchdog checks (no hooks)."""
        queue = self._queue
        fifo = self._fifo
        executed = 0
        now = self._now
        while True:
            if queue:
                at = queue[0][0]
                use_ring = at > now and bool(fifo)
            elif fifo:
                use_ring = True
            else:
                break
            if use_ring:
                at = now
            if until is not None and at > until:
                self._now = until
                return until
            if max_events is not None and executed >= max_events:
                raise WatchdogError(
                    self._now, executed, self._blocked,
                    len(queue) + len(fifo)
                )
            if use_ring:
                action = fifo.popleft()
                self._ring_executed += 1
            else:
                if at < now:
                    _time_went_backwards(at, now)
                entry = heapq.heappop(queue)
                _check_root(queue, entry, now)
                action = entry[2]
                now = self._now = at
            self.events_executed += 1
            executed += 1
            action()
        if until is None and self._blocked > 0:
            raise DeadlockError(self._blocked, self._now)
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def _run_hooked(self, until: Optional[int],
                    max_events: Optional[int]) -> int:
        """Legacy heap-only loop dispatching sanitizer hooks per event."""
        queue = self._queue
        event_hooks = self._event_hooks
        executed = 0
        while queue:
            at, seq, action = queue[0]
            if until is not None and at > until:
                self._now = until
                return self._now
            if max_events is not None and executed >= max_events:
                raise WatchdogError(
                    self._now, executed, self._blocked, len(queue)
                )
            if at < self._now:
                _time_went_backwards(at, self._now)
            _check_root(queue, heapq.heappop(queue), self._now)
            self._now = at
            self.events_executed += 1
            executed += 1
            if event_hooks:
                for hook in event_hooks:
                    hook(at, seq, action)
            action()
        if until is None and self._blocked > 0:
            raise DeadlockError(self._blocked, self._now)
        if until is not None:
            self._now = max(self._now, until)
        return self._now


# -- monotonicity violations --------------------------------------------------
#
# Every run loop checks each heap pop: the entry may not lie in the past,
# and its (time, seq) key must sit strictly below the new heap root.  The
# second check catches a duplicated or reordered heap entry at the pop
# that exposes it; it compares two keys of the same heap, so it needs no
# state across pops.  The raisers live out of line to keep the loops lean.

def _past_schedule(at: int, now: int) -> None:
    raise InvariantError(
        "monotonicity", now,
        f"action scheduled into the past: at={at} < now={now}",
    )


def _time_went_backwards(at: int, now: int) -> None:
    raise InvariantError(
        "monotonicity", now, f"time went backwards: {at} < {now}"
    )


def _order_regressed(entry: tuple, root: tuple, now: int) -> None:
    raise InvariantError(
        "monotonicity", now,
        f"event order regressed: step (t={entry[0]}, seq={entry[1]}) "
        f"popped with (t={root[0]}, seq={root[1]}) still at the heap root",
    )


def _check_root(queue: List, entry: tuple, now: int) -> None:
    """Per-pop order check: ``entry`` was just popped from ``queue``."""
    if queue:
        root = queue[0]
        if root[0] <= entry[0] and (root[0] < entry[0]
                                    or root[1] <= entry[1]):
            _order_regressed(entry, root, now)


def all_of(sim: Simulator, events: List[Event]) -> Event:
    """Return an event that triggers once every listed event has.

    The composite's value is the list of individual event values in the
    order given.  An empty list yields an event that triggers at the
    current time.
    """
    done = Event(sim)
    remaining = len(events)
    if remaining == 0:
        done.succeed([])
        return done
    values: List[Any] = [None] * remaining
    left = [remaining]

    def on_done(index: int, event: Event) -> None:
        if event._exception is not None:
            if not done.triggered:
                done.fail(event._exception)
            return
        values[index] = event.value
        left[0] -= 1
        if left[0] == 0 and not done.triggered:
            done.succeed(values)

    for i, event in enumerate(events):
        event.add_callback(partial(on_done, i))
    return done
