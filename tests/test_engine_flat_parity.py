"""Parked flat ops: contended handoffs and invalidation joins.

A flat transaction op parks in two places: in a Resource's waiter
queue (a busy link or home lock) and on its write's invalidation
rounds.  Both the pure-Python SoA kernel and the compiled loop resolve
these without the generator twin's Events -- ``Resource.release``
hands the unit to a complement-packed waiter, and a counting join
stands in for ``all_of`` -- and the compiled loop does both natively.
These tests pin that all three kernels still execute the same
simulation, event for event, on the paths that exercise them hardest:

* a hot home lock with many queued flat waiters,
* invalidation storms (many sharers, then one writer), including a
  ``home == node`` round (a spawned process, not a flat transmit) and
  rounds that finish before the write's join is built (late joiners),
* a join whose round fails, and the reuse of its op slot afterwards,
* an idle release, which must still raise on every kernel.
"""

from __future__ import annotations

import pytest

from repro import SystemConfig
from repro.core import ops
from repro.core.machine import Processor, make_machine
from repro.engine import Resource, all_of
from repro.engine.compiled import HAVE_EXTENSION, CompiledSimulator
from repro.engine.core import Simulator
from repro.engine.soa import SoaSimulator
from repro.errors import SimulationError
from repro.network.link import Link
from tests.test_engine_compiled import _FakeFabric, _home_ctx

KERNELS = ["object", "soa"] + (["compiled"] if HAVE_EXTENSION else [])
FLAT_KERNELS = [SoaSimulator] + (
    [CompiledSimulator] if HAVE_EXTENSION else []
)

NPROCS = 8


def _addr_homed_at(machine, array, node, offset=0):
    block_elems = machine.config.block_bytes // array.elem_bytes
    addr = array.addr((node + offset * machine.nprocs) * block_elems)
    assert machine.space.home_of(addr) == node
    return addr


def _programs(machine, array):
    """Per-processor op lists: a hot home lock, then two storms."""
    hot = [_addr_homed_at(machine, array, 0, k) for k in range(3)]
    storm = [_addr_homed_at(machine, array, 0, 3),
             _addr_homed_at(machine, array, 5, 4)]
    programs = {pid: [] for pid in range(NPROCS)}
    for pid in range(NPROCS):
        # Everyone hammers the same blocks homed at node 0: the home
        # lock queues most requesters, and each write invalidates or
        # forwards to the previous holders.
        for rep in range(3):
            for addr in hot:
                programs[pid].append(ops.Write(addr) if (pid + rep) % 2
                                     else ops.Read(addr))
        programs[pid].append(ops.Barrier(0))
    for phase, addr in enumerate(storm):
        writer = NPROCS - 1 - phase
        for pid in range(NPROCS):
            # Every node but the writer shares the block -- its home
            # included, so one round is the home == node process.
            if pid != writer:
                programs[pid].append(ops.Read(addr))
            programs[pid].append(ops.Barrier(1 + 2 * phase))
            if pid == writer:
                programs[pid].append(ops.Write(addr))
            programs[pid].append(ops.Barrier(2 + 2 * phase))
    return programs


def _simulate(kernel, topology):
    calls = {"late": 0, "home_round": 0, "flat_grant": 0}
    config = SystemConfig(processors=NPROCS, topology=topology,
                          engine_kernel=kernel, check="off")
    machine = make_machine("target", config)
    sim = machine.sim
    assert sim.kernel == kernel
    array = machine.space.alloc("data", 4096, 8, "interleaved")
    if sim._flat_capable:
        late = sim._flat_join_late
        spawn_gen = machine._spawn_inv_gen
        flat_grant = sim._flat_grant

        def counted_late(opidx, shell):
            calls["late"] += 1
            late(opidx, shell)

        def counted_home_round(pid, home, node):
            calls["home_round"] += 1
            return spawn_gen(pid, home, node)

        def counted_grant(opidx):
            calls["flat_grant"] += 1
            flat_grant(opidx)

        sim._flat_join_late = counted_late
        machine._spawn_inv_gen = counted_home_round
        sim._flat_grant = counted_grant
    processors = [Processor(machine, pid) for pid in range(NPROCS)]
    machine.processors = processors
    for pid, program in _programs(machine, array).items():
        sim.spawn(processors[pid].run(iter(program)), name=f"cpu{pid}")
    sim.run()
    links = sorted(machine.fabric.links,
                   key=lambda link: (link.src, link.dst))
    state = {
        "now": sim.now,
        "sim_events": sim.events_executed,
        "messages": machine.fabric.messages,
        "buckets": [vars(p.buckets) for p in processors],
        "links": [(link.src, link.dst, link.grants, link.total_wait_ns,
                   link.messages, link.busy_ns) for link in links],
        "home_locks": sorted(
            (block, lock.grants, lock.total_wait_ns)
            for block, lock in machine._home_locks.items()
        ),
    }
    return state, calls, sim.engine_profile()


@pytest.mark.parametrize("topology", ["full", "mesh"])
def test_hot_lock_and_invalidation_storms_match_across_kernels(topology):
    results = {k: _simulate(k, topology) for k in KERNELS}
    reference = results["object"][0]
    for kernel in KERNELS:
        assert results[kernel][0] == reference, kernel
    # The scenario reaches the parked paths it is meant to pin.
    assert max(wait for _, _, wait in reference["home_locks"]) > 0
    assert max(grants for _, grants, _ in reference["home_locks"]) >= 20
    assert sum(link[3] for link in reference["links"]) > 0
    for kernel in KERNELS[1:]:
        calls = results[kernel][1]
        assert calls["late"] > 0, kernel
        assert calls["home_round"] >= 2, kernel
    soa_calls = results["soa"][1]
    assert soa_calls["flat_grant"] > 0
    if HAVE_EXTENSION:
        # The compiled loop hands units to flat waiters natively.
        assert results["compiled"][1]["flat_grant"] == 0
        soa_profile, comp_profile = results["soa"][2], results["compiled"][2]
        for key in ("heap_pops", "ring_pops", "ring_scheduled",
                    "rows_recycled", "flat_posts", "flat_tx"):
            assert comp_profile[key] == soa_profile[key], key


# -- the counting join against all_of ------------------------------------------


class _WritePlan:
    """Home-local ownership upgrade invalidating ``rounds`` rounds."""

    hit = False
    fast = False
    from_memory = False
    source = None
    had_data = True
    sharing_writeback = False
    writeback = None

    def __init__(self, rounds):
        # Every round is a home == node round, so each kernel asks the
        # machine's ``_spawn_inv`` for it (remote rounds are built as
        # flat transmits without a callout).
        self.invalidated = (0,) * rounds


class _Rounds:
    """Machine stub whose invalidation rounds are test-driven Events."""

    def __init__(self):
        self.pending = []

    def _spawn_inv(self, pid, home, node):
        return self.pending.pop(0)

    def _post_writeback(self, pid, writeback):
        pass


class _Boom(Exception):
    pass


def _join_scenario(sim, fail):
    """Two writes on two home locks; the first joins three rounds.

    Round 1 finishes before the first write's join is built (a late
    joiner); round 2 fails when ``fail`` is set; round 3 finishes
    after that, while the second write -- reusing a recycled op slot on
    the flat kernels -- still waits on its own round.
    """
    machine = _Rounds()
    rounds = [sim.event() for _ in range(4)]
    machine.pending = list(rounds)
    lock_a = Resource(sim, capacity=1, name="dirA")
    lock_b = Resource(sim, capacity=1, name="dirB")
    log = []

    def plan_write(pid, block):
        return _WritePlan(3 if block == 5 else 1)

    def plan_read(pid, block):  # pragma: no cover - write-only scenario
        raise AssertionError("write-only scenario planned a read")

    ctx = (None, [], 1, 8, 32, 400, 1600, 100, 60, 800,
           plan_read, plan_write, machine)

    def write(lock, block):
        if sim._flat_capable:
            return (yield sim.flat_transact(ctx, 0, block, 0, lock, True))
        # The generator form the flat program replaces.
        yield lock
        invs = [machine._spawn_inv(0, 0, node)
                for node in plan_write(0, block).invalidated]
        yield all_of(sim, invs)
        lock.release()
        return 0, 0

    def holder():
        yield lock_a
        yield 10
        lock_a.release()

    def writer(tag, lock, block, arrive):
        yield arrive
        try:
            result = yield from write(lock, block)
        except _Boom as exc:
            log.append((tag, sim.now, repr(exc)))
            return
        log.append((tag, sim.now, result))

    def driver():
        yield 5
        rounds[0].succeed("r1")         # dispatched before the join
        yield 15
        if fail:
            rounds[1].fail(_Boom("round 2"))
        else:
            rounds[1].succeed("r2")
        yield 10
        rounds[2].succeed("r3")         # t=30: after a failed join
        yield 10
        rounds[3].succeed("r4")         # t=40: the second write's round

    sim.spawn(holder(), name="holder")
    sim.spawn(writer("A", lock_a, 5, 1), name="A")
    sim.spawn(writer("B", lock_b, 6, 25), name="B")
    sim.spawn(driver(), name="driver")
    sim.run()
    return (log, sim.now, sim.events_executed,
            [(lock.grants, lock.total_wait_ns, lock.in_use)
             for lock in (lock_a, lock_b)])


@pytest.mark.parametrize("fail", [False, True], ids=["succeed", "fail"])
@pytest.mark.parametrize("cls", FLAT_KERNELS)
def test_counting_join_reproduces_all_of(cls, fail):
    reference = _join_scenario(Simulator(), fail)
    assert _join_scenario(cls(), fail) == reference
    log = reference[0]
    if fail:
        # The failing round fails the join at once; the later round
        # does not disturb the write that reused the slot.
        assert log == [("A", 20, "_Boom('round 2')"), ("B", 40, (0, 0))]
    else:
        assert log == [("A", 30, (0, 0)), ("B", 40, (0, 0))]


# -- idle releases -------------------------------------------------------------


def _idle_lock_release(sim):
    lock = Resource(sim, capacity=1, name="dir5")
    ctx = _home_ctx(sim, [])    # home-local reads served from memory

    def requester(arrive):
        yield arrive
        yield sim.flat_transact(ctx, 0, 5, 0, lock, False)

    def tamper():
        yield 50
        lock.in_use = 0     # the holder's unit vanishes

    sim.spawn(requester(0), name="A")
    sim.spawn(requester(10), name="B")   # parks behind A
    sim.spawn(tamper(), name="tamper")


def _idle_link_release(sim):
    link = Link(sim, 0, 1)
    fabric = _FakeFabric()
    for _ in range(2):      # the second transmit parks on the link
        sim.flat_transmit(fabric, (((link,), 8, 100),))

    def tamper():
        yield 50
        link.in_use = 0

    sim.spawn(tamper(), name="tamper")


@pytest.mark.parametrize("scenario", [_idle_lock_release, _idle_link_release],
                         ids=["home-lock", "link"])
@pytest.mark.parametrize("cls", FLAT_KERNELS)
def test_idle_release_to_a_parked_flat_op_raises(cls, scenario):
    sim = cls()
    scenario(sim)
    with pytest.raises(SimulationError, match="release of idle resource"):
        sim.run()
