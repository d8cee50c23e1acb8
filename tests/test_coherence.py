"""The Berkeley coherence state machine shared by target and CLogP."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig
from repro.core.coherence import CoherentMemory
from repro.errors import ProtocolError
from repro.memory import AddressSpace, LineState


def make_memory(nprocs=4, sets=4, assoc=2):
    config = SystemConfig(
        processors=nprocs,
        cache_size_bytes=sets * assoc * 32,
        cache_assoc=assoc,
    )
    space = AddressSpace(nprocs, config.block_bytes)
    space.alloc("data", 4096, 1, "interleaved")
    return CoherentMemory(config, space), space


def block_homed_at(space, node, offset=0):
    """A block id whose home is ``node`` (interleaved region)."""
    region = space.regions[0]
    return region.first_block + node + offset * space.nprocs


# -- reads ---------------------------------------------------------------------


def test_cold_read_from_local_memory():
    memory, space = make_memory()
    block = block_homed_at(space, 1)
    plan = memory.plan_read(1, block)
    assert not plan.hit
    assert plan.from_memory and plan.source == 1
    assert memory.caches[1].state_of(block) is LineState.VALID
    assert memory.directory.entry(block).sharers == {1}


def test_cold_read_from_remote_memory():
    memory, space = make_memory()
    block = block_homed_at(space, 2)
    plan = memory.plan_read(0, block)
    assert plan.source == 2 and plan.from_memory
    assert plan.home == 2


def test_read_hit_after_fill():
    memory, space = make_memory()
    block = block_homed_at(space, 2)
    memory.plan_read(0, block)
    plan = memory.plan_read(0, block)
    assert plan.hit


def test_read_source_classification_matches_plan():
    memory, space = make_memory()
    block = block_homed_at(space, 2)
    assert memory.read_source(0, block) == 2
    assert memory.read_source(2, block) is None


def test_read_from_dirty_owner_not_memory():
    memory, space = make_memory()
    block = block_homed_at(space, 0)
    memory.plan_write(3, block)  # 3 becomes owner (DIRTY)
    plan = memory.plan_read(1, block)
    assert plan.source == 3 and not plan.from_memory
    # Berkeley: owner keeps the block, now SHARED_DIRTY.
    assert memory.caches[3].state_of(block) is LineState.SHARED_DIRTY
    assert memory.caches[1].state_of(block) is LineState.VALID
    entry = memory.directory.entry(block)
    assert entry.owner == 3 and entry.sharers == {1, 3}


def test_remote_dirty_owner_forces_network_even_for_home():
    memory, space = make_memory()
    block = block_homed_at(space, 1)
    memory.plan_write(3, block)
    # Node 1 is the home, but memory is stale: data must come from 3.
    assert memory.read_source(1, block) == 3


# -- writes ----------------------------------------------------------------------


def test_write_miss_takes_ownership():
    memory, space = make_memory()
    block = block_homed_at(space, 2)
    plan = memory.plan_write(0, block)
    assert not plan.fast and not plan.had_data
    assert plan.source == 2 and plan.from_memory
    assert memory.caches[0].state_of(block) is LineState.DIRTY
    entry = memory.directory.entry(block)
    assert entry.owner == 0 and entry.sharers == {0}


def test_write_hit_on_dirty_is_fast():
    memory, space = make_memory()
    block = block_homed_at(space, 2)
    memory.plan_write(0, block)
    plan = memory.plan_write(0, block)
    assert plan.fast


def test_write_invalidates_sharers():
    memory, space = make_memory()
    block = block_homed_at(space, 0)
    memory.plan_read(1, block)
    memory.plan_read(2, block)
    plan = memory.plan_write(3, block)
    assert set(plan.invalidated) == {1, 2}
    assert memory.caches[1].state_of(block) is LineState.INVALID
    assert memory.caches[2].state_of(block) is LineState.INVALID
    assert memory.caches[3].state_of(block) is LineState.DIRTY


def test_upgrade_write_needs_no_data():
    memory, space = make_memory()
    block = block_homed_at(space, 0)
    memory.plan_read(1, block)
    plan = memory.plan_write(1, block)
    assert plan.had_data and plan.source is None
    assert memory.caches[1].state_of(block) is LineState.DIRTY


def test_write_fetches_from_previous_owner():
    memory, space = make_memory()
    block = block_homed_at(space, 0)
    memory.plan_write(1, block)
    plan = memory.plan_write(2, block)
    assert plan.source == 1 and not plan.from_memory
    assert plan.prev_owner == 1
    assert 1 in plan.invalidated
    assert memory.caches[1].state_of(block) is LineState.INVALID
    entry = memory.directory.entry(block)
    assert entry.owner == 2 and entry.sharers == {2}


def test_write_source_classification():
    memory, space = make_memory()
    block = block_homed_at(space, 1)
    assert memory.write_source(1, block) is None  # local home, clean
    assert memory.write_source(0, block) == 1  # remote home
    memory.plan_read(0, block)
    assert memory.write_source(0, block) is None  # valid copy held


# -- the paper's worked example (Section 3.2) ----------------------------------------


def test_paper_example_invalidation_then_reread():
    """Two valid copies; one writes; the other re-reads from the writer."""
    memory, space = make_memory()
    block = block_homed_at(space, 0)
    memory.plan_read(1, block)
    memory.plan_read(2, block)
    # Processor 1 writes: on both machines the copy at 2 goes INVALID.
    plan = memory.plan_write(1, block)
    assert 2 in plan.invalidated
    assert memory.caches[2].state_of(block) is LineState.INVALID
    # A read by 2 now needs the network on both machines: data is dirty
    # at processor 1.
    assert memory.read_source(2, block) == 1


# -- evictions -------------------------------------------------------------------------


def small_memory():
    """1-set, 1-way caches: every new block evicts."""
    return make_memory(nprocs=2, sets=1, assoc=1)


def test_clean_eviction_updates_sharers_silently():
    memory, space = small_memory()
    b1 = block_homed_at(space, 0, 0)
    b2 = block_homed_at(space, 0, 1)
    memory.plan_read(1, b1)
    plan = memory.plan_read(1, b2)
    assert plan.writeback is None  # clean victim: no writeback message
    assert 1 not in memory.directory.entry(b1).sharers


def test_dirty_eviction_requires_writeback():
    memory, space = small_memory()
    b1 = block_homed_at(space, 0, 0)
    b2 = block_homed_at(space, 0, 1)
    memory.plan_write(1, b1)
    plan = memory.plan_read(1, b2)
    assert plan.writeback == (b1, 0)
    entry = memory.directory.peek(b1)
    # Ownership returned to memory.
    assert entry is None or entry.owner is None


def test_eviction_then_refetch_comes_from_memory():
    memory, space = small_memory()
    b1 = block_homed_at(space, 0, 0)
    b2 = block_homed_at(space, 0, 1)
    memory.plan_write(1, b1)
    memory.plan_read(1, b2)  # evicts dirty b1 (written back)
    plan = memory.plan_read(1, b1)
    assert plan.from_memory  # memory is clean again


# -- invariants under random workloads (hypothesis) ------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.integers(0, 3),          # processor
            st.integers(0, 11),         # block offset
            st.booleans(),              # is_write
        ),
        min_size=1,
        max_size=200,
    )
)
def test_invariants_hold_under_random_traffic(operations):
    memory, space = make_memory(nprocs=4, sets=2, assoc=2)
    first = space.regions[0].first_block
    for pid, offset, is_write in operations:
        block = first + offset
        if is_write:
            memory.plan_write(pid, block)
        else:
            memory.plan_read(pid, block)
    memory.check_invariants()


@settings(max_examples=40, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 7), st.booleans()),
        min_size=1,
        max_size=120,
    )
)
def test_exactly_one_owner_and_dirty_is_exclusive(operations):
    memory, space = make_memory(nprocs=2, sets=1, assoc=2)
    first = space.regions[0].first_block
    for pid, offset, is_write in operations:
        block = first + offset
        if is_write:
            memory.plan_write(pid, block)
        else:
            memory.plan_read(pid, block)
        # Spot-check the written/read block immediately.
        holders = [
            p for p in range(2)
            if memory.caches[p].state_of(block).is_valid
        ]
        owners = [
            p for p in range(2)
            if memory.caches[p].state_of(block).is_owned
        ]
        assert len(owners) <= 1
        if is_write:
            assert memory.caches[pid].state_of(block) is LineState.DIRTY
            assert holders == [pid]


# -- per-block sanitizer check (check_block) -------------------------------------------

V = LineState.VALID
SD = LineState.SHARED_DIRTY
D = LineState.DIRTY


def _corrupt(memory, block, lines, sharers=None, owner=None):
    """Install ``lines`` ({pid: state}) and, unless ``sharers`` is None,
    a directory entry -- bypassing the protocol to build a broken state."""
    for pid, state in lines.items():
        memory.caches[pid].install(block, state)
    if sharers is not None:
        entry = memory.directory.entry(block)
        entry.sharers = set(sharers)
        entry.owner = owner


@pytest.mark.parametrize("lines, sharers, owner, message", [
    ({0: V}, None, None, r"cached at \[0\] but has no directory entry"),
    ({}, (), 1, r"owner 1 missing from sharer set"),
    ({0: SD, 1: SD}, (0, 1), 0, r"has owners \[0, 1\]"),
    ({0: D, 1: V}, (0, 1), 0, r"exclusive at \[0\] but held by"),
    ({0: V, 1: V}, (0,), None, r"cached at 1 but not in sharer set"),
    ({0: SD, 1: V}, (0, 1), 1, r"directory owner 1 != cache owner 0"),
    ({0: V}, (0,), 0, r"directory owner 0 owns nothing"),
    ({0: V}, (0, 2), None, r"sharer 2 holds no line"),
], ids=["no-entry", "entry-check", "two-owners", "exclusive-shared",
        "holder-not-sharer", "owner-mismatch", "owner-holds-nothing",
        "sharer-holds-nothing"])
def test_check_block_reports_each_violation(lines, sharers, owner, message):
    memory, space = make_memory()
    block = block_homed_at(space, 0)
    _corrupt(memory, block, lines, sharers, owner)
    with pytest.raises(ProtocolError, match=message):
        memory.check_block(block)


def test_check_block_accepts_protocol_states():
    memory, space = make_memory()
    block = block_homed_at(space, 0)
    memory.check_block(block)  # untouched: no entry, no lines
    memory.plan_read(1, block)
    memory.plan_read(2, block)
    memory.check_block(block)  # two clean sharers
    memory.plan_write(3, block)
    memory.check_block(block)  # one dirty owner
    memory.plan_read(0, block)
    memory.check_block(block)  # shared-dirty owner plus a reader
