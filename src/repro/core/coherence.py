"""Shared functional core of the Berkeley coherence protocol.

Both cached machines -- the detailed target and the CLogP abstraction --
run the *same* state machine over the same caches and directory, which
is exactly the paper's setup: CLogP "maintains the caches coherent ...
but does not model the overheads associated with maintaining the
coherence".  The state machine therefore lives here once, and each
machine attaches its own timing:

* the **target** turns each transition into directory messages on the
  detailed network (and pays memory/serialization time),
* **CLogP** pays only for transitions whose *data* must come from a
  remote node, via a LogP round trip; pure coherence actions
  (invalidations, ownership grants, acks, writebacks) are free.

A transaction is planned *atomically*: ``plan_read``/``plan_write``
mutate the caches and directory and return a plan object describing
what happened, from which the machines derive their message sequences.
The target serializes transactions per block at the home node before
planning, which is how a real fully-mapped directory orders conflicting
requests.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config import SystemConfig
from ..errors import ProtocolError
from ..memory.address import AddressSpace
from ..memory.cache import Cache
from ..memory.directory import Directory
from ..memory.states import LineState

#: A required writeback: (block id, home node of the block).
Writeback = Tuple[int, int]


class ReadPlan:
    """Outcome of one load.

    A plain ``__slots__`` value class (one is allocated per directory
    read transaction, so its constructor is hot -- a frozen dataclass
    pays ``object.__setattr__`` per field).
    """

    __slots__ = ("hit", "source", "from_memory", "home", "writeback",
                 "sharing_writeback")

    def __init__(self, hit: bool, source: Optional[int] = None,
                 from_memory: bool = False, home: int = -1,
                 writeback: Optional[Writeback] = None,
                 sharing_writeback: bool = False):
        #: The line was already valid locally: no transaction at all.
        self.hit = hit
        #: Node that supplied the data (home or previous owner); None
        #: on hit.
        self.source = source
        #: Data came from home memory (as opposed to an owning cache).
        self.from_memory = from_memory
        #: Home node of the block.
        self.home = home
        #: Eviction-induced writeback, if the victim was owned.
        self.writeback = writeback
        #: Illinois only: the dirty owner's data also returns to the
        #: home (a sharing writeback message on the target machine).
        self.sharing_writeback = sharing_writeback

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReadPlan(hit={self.hit}, source={self.source}, "
            f"from_memory={self.from_memory}, home={self.home}, "
            f"writeback={self.writeback}, "
            f"sharing_writeback={self.sharing_writeback})"
        )


class WritePlan:
    """Outcome of one store (a ``__slots__`` value class, like
    :class:`ReadPlan`)."""

    __slots__ = ("fast", "had_data", "source", "from_memory", "home",
                 "invalidated", "prev_owner", "writeback")

    def __init__(self, fast: bool, had_data: bool = True,
                 source: Optional[int] = None, from_memory: bool = False,
                 home: int = -1, invalidated: Tuple[int, ...] = (),
                 prev_owner: Optional[int] = None,
                 writeback: Optional[Writeback] = None):
        #: The line was already writable (DIRTY): no coherence action.
        self.fast = fast
        #: The line held valid data (no data transfer needed), even if
        #: ownership had to be acquired.
        self.had_data = had_data
        #: Node that supplied the data when a transfer was needed.
        self.source = source
        self.from_memory = from_memory
        self.home = home
        #: Caches whose copies were invalidated (ownership transfer
        #: included).
        self.invalidated = invalidated
        #: Previous owner (may equal a member of ``invalidated``).
        self.prev_owner = prev_owner
        self.writeback = writeback

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WritePlan(fast={self.fast}, had_data={self.had_data}, "
            f"source={self.source}, from_memory={self.from_memory}, "
            f"home={self.home}, invalidated={self.invalidated}, "
            f"prev_owner={self.prev_owner}, writeback={self.writeback})"
        )


class CoherentMemory:
    """Caches + directory + the Berkeley transition function."""

    def __init__(self, config: SystemConfig, space: AddressSpace,
                 checkers=None, sim=None):
        self.config = config
        self.space = space
        self.nprocs = config.processors
        self.protocol = config.protocol
        self.caches: List[Cache] = [
            Cache(config.sets, config.cache_assoc)
            for _ in range(config.processors)
        ]
        self.directory = Directory()
        #: Silent EXCLUSIVE -> DIRTY upgrades performed (Illinois only).
        self.silent_upgrades = 0
        # Sanitizer wiring: transition hooks fire after every protocol
        # state change (see repro.checkers.coherence); the sim reference
        # only timestamps violations.
        self._sim = sim
        self._transition_hooks = (
            checkers.transition_hooks if checkers is not None else ()
        )

    def _after_transition(self, pid: int, block: int,
                          victim_block: Optional[int] = None) -> None:
        """Dispatch sanitizer hooks for a completed state transition."""
        now = self._sim.now if self._sim is not None else 0
        for hook in self._transition_hooks:
            hook(self, pid, block, now)
            if victim_block is not None and victim_block != block:
                hook(self, pid, victim_block, now)

    # -- classification (no mutation) -------------------------------------------

    def read_source(self, pid: int, block: int) -> Optional[int]:
        """Remote node a read miss must fetch from, or None if local.

        Assumes the line is INVALID at ``pid`` (i.e. an actual miss).
        A remote *owner* forces a network access even when ``pid`` is
        the home (memory is stale); otherwise the home supplies data.
        """
        entry = self.directory.peek(block)
        if entry is not None and entry.owner is not None and entry.owner != pid:
            return entry.owner
        home = self.space.home_of_block(block)
        return None if home == pid else home

    def write_source(self, pid: int, block: int) -> Optional[int]:
        """Remote node a write must fetch data from, or None.

        None means the store needs no remote data: either the line is
        valid locally, or home memory is local and clean.
        """
        if self.caches[pid].state_of(block).is_valid:
            return None
        return self.read_source(pid, block)

    # -- transitions (mutate state, return plans) ----------------------------------

    def plan_read(self, pid: int, block: int) -> ReadPlan:
        """Execute a load's state transition."""
        cache = self.caches[pid]
        line = cache.lookup(block)
        if line is not None:
            return ReadPlan(hit=True)
        home = self.space.home_of_block(block)
        entry = self.directory.entry(block)
        sharing_writeback = False
        fill_state = LineState.VALID
        if entry.owner is not None and entry.owner != pid:
            source = entry.owner
            from_memory = False
            if self.protocol == "illinois":
                # MESI: the owner downgrades to shared; a dirty owner
                # also returns the data to memory (sharing writeback),
                # so the home is clean again and ownership lapses.
                owner_state = self.caches[source].state_of(block)
                sharing_writeback = owner_state.is_dirty
                self.caches[source].set_state(block, LineState.VALID)
                entry.owner = None
            else:
                # Berkeley: the owner supplies data and keeps ownership,
                # but the block is now (potentially) shared.
                self.caches[source].set_state(block, LineState.SHARED_DIRTY)
        else:
            if entry.owner == pid:
                raise ProtocolError(
                    f"node {pid} owns block {block} but missed on it"
                )
            source = home
            from_memory = True
            if self.protocol == "illinois" and not entry.sharers:
                # MESI: a fill nobody else caches arrives EXCLUSIVE.
                fill_state = LineState.EXCLUSIVE
        victim = cache.install(block, fill_state)
        entry.sharers.add(pid)
        if fill_state is LineState.EXCLUSIVE:
            entry.owner = pid
        writeback = self._retire_victim(pid, victim)
        if self._transition_hooks:
            self._after_transition(
                pid, block, victim[0] if victim is not None else None
            )
        return ReadPlan(
            hit=False,
            source=source,
            from_memory=from_memory,
            home=home,
            writeback=writeback,
            sharing_writeback=sharing_writeback,
        )

    def try_silent_upgrade(self, pid: int, block: int) -> bool:
        """Illinois: upgrade an EXCLUSIVE line to DIRTY for free.

        Returns True when the store needs no coherence transaction at
        all -- the defining optimization of the MESI protocol.
        """
        if self.protocol != "illinois":
            return False
        cache = self.caches[pid]
        if cache.state_of(block) is not LineState.EXCLUSIVE:
            return False
        cache.set_state(block, LineState.DIRTY)
        self.silent_upgrades += 1
        if self._transition_hooks:
            self._after_transition(pid, block)
        return True

    def plan_write(self, pid: int, block: int) -> WritePlan:
        """Execute a store's state transition."""
        cache = self.caches[pid]
        line = cache.lookup(block)
        state = line.state if line is not None else LineState.INVALID
        if state is LineState.DIRTY:
            return WritePlan(fast=True)
        if state is LineState.EXCLUSIVE and self.try_silent_upgrade(pid, block):
            return WritePlan(fast=True)
        home = self.space.home_of_block(block)
        entry = self.directory.entry(block)
        prev_owner = entry.owner
        invalidated = tuple(sorted(s for s in entry.sharers if s != pid))
        for node in invalidated:
            self.caches[node].invalidate(block)
        had_data = state.is_valid
        source: Optional[int] = None
        from_memory = False
        if not had_data:
            if prev_owner is not None and prev_owner != pid:
                source = prev_owner
            else:
                source = home
                from_memory = True
        victim = cache.install(block, LineState.DIRTY)
        entry.owner = pid
        entry.sharers = {pid}
        writeback = self._retire_victim(pid, victim)
        if self._transition_hooks:
            self._after_transition(
                pid, block, victim[0] if victim is not None else None
            )
        return WritePlan(
            fast=False,
            had_data=had_data,
            source=source,
            from_memory=from_memory,
            home=home,
            invalidated=invalidated,
            prev_owner=prev_owner,
            writeback=writeback,
        )

    def _retire_victim(
        self, pid: int, victim: Optional[Tuple[int, LineState]]
    ) -> Optional[Writeback]:
        """Update the directory for an evicted line; report writebacks."""
        if victim is None:
            return None
        vblock, vstate = victim
        ventry = self.directory.entry(vblock)
        ventry.sharers.discard(pid)
        writeback: Optional[Writeback] = None
        if vstate.is_owned:
            if ventry.owner != pid:
                raise ProtocolError(
                    f"evicting owned block {vblock} from {pid} but directory "
                    f"says owner is {ventry.owner}"
                )
            ventry.owner = None
            if vstate.is_dirty:
                # EXCLUSIVE victims are clean and die silently.
                writeback = (vblock, self.space.home_of_block(vblock))
        elif ventry.owner == pid:
            raise ProtocolError(
                f"directory says {pid} owns {vblock} but its line state "
                f"was {vstate.name}"
            )
        self.directory.drop_if_idle(vblock)
        return writeback

    # -- invariants (runtime sanitizer and tests) -------------------------------------

    def check_block(self, block: int) -> None:
        """Verify the coherence invariants of one block (O(P)).

        The per-transition check of ``--check=basic``: directory entry
        self-consistency (:meth:`DirectoryEntry.check`), SWMR, and
        directory <-> cache cross-consistency for the touched block.

        :raises ProtocolError: any invariant is violated.
        """
        entry = self.directory.peek(block)
        holders = []
        for pid, cache in enumerate(self.caches):
            line = cache._by_block.get(block)
            if line is not None:
                holders.append((pid, line.state))
        if entry is None:
            if holders:
                raise ProtocolError(
                    f"block {block} cached at "
                    f"{[pid for pid, _ in holders]} but has no directory "
                    f"entry"
                )
            return
        entry.check()
        owners = [pid for pid, state in holders if state.is_owned]
        if len(owners) > 1:
            raise ProtocolError(f"block {block} has owners {owners}")
        exclusive = [
            pid for pid, state in holders
            if state in (LineState.DIRTY, LineState.EXCLUSIVE)
        ]
        if exclusive and len(holders) > 1:
            raise ProtocolError(
                f"block {block} exclusive at {exclusive} but held by "
                f"{holders}"
            )
        for pid, _state in holders:
            if pid not in entry.sharers:
                raise ProtocolError(
                    f"block {block} cached at {pid} but not in sharer set "
                    f"{entry.sharers}"
                )
        if owners and entry.owner != owners[0]:
            raise ProtocolError(
                f"block {block}: directory owner {entry.owner} != cache "
                f"owner {owners[0]}"
            )
        if not owners and entry.owner is not None:
            raise ProtocolError(
                f"block {block}: directory owner {entry.owner} owns nothing"
            )
        if len(entry.sharers) != len(holders):
            # Every holder is a sharer (checked above), so some sharer
            # holds no line.
            held = [pid for pid, _state in holders]
            for pid in entry.sharers:
                if pid not in held:
                    raise ProtocolError(
                        f"block {block}: sharer {pid} holds no line"
                    )

    def check_invariants(self) -> None:
        """Raise :class:`ProtocolError` on any coherence inconsistency."""
        seen = {}
        for pid, cache in enumerate(self.caches):
            for block, line in cache._by_block.items():
                seen.setdefault(block, []).append((pid, line.state))
        for block, holders in seen.items():
            entry = self.directory.peek(block)
            if entry is None:
                raise ProtocolError(f"block {block} cached but no directory entry")
            owners = [p for p, s in holders if s.is_owned]
            if len(owners) > 1:
                raise ProtocolError(f"block {block} has owners {owners}")
            exclusive = [
                p for p, s in holders
                if s in (LineState.DIRTY, LineState.EXCLUSIVE)
            ]
            if exclusive and len(holders) > 1:
                raise ProtocolError(
                    f"block {block} exclusive at {exclusive} but shared by "
                    f"{holders}"
                )
            for pid, _state in holders:
                if pid not in entry.sharers:
                    raise ProtocolError(
                        f"block {block} cached at {pid} but not in sharer set"
                    )
            if owners:
                if entry.owner != owners[0]:
                    raise ProtocolError(
                        f"block {block}: directory owner {entry.owner} != "
                        f"cache owner {owners[0]}"
                    )
            elif entry.owner is not None:
                raise ProtocolError(
                    f"block {block}: directory owner {entry.owner} owns nothing"
                )
        for block in list(self.directory.blocks()):
            entry = self.directory.peek(block)
            for pid in entry.sharers:
                if not self.caches[pid].contains(block):
                    raise ProtocolError(
                        f"block {block}: sharer {pid} holds no line"
                    )
