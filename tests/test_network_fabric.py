"""Circuit-switched fabric: transmission timing and contention split."""

import pytest

from repro import FaultConfig, LinkFailure, NodeStall
from repro.checkers import Checker, CheckerSet
from repro.engine import (
    HAVE_EXTENSION,
    CompiledSimulator,
    RandomStreams,
    Simulator,
    SoaSimulator,
)
from repro.errors import TopologyError
from repro.faults.injector import FaultInjector
from repro.network import Fabric, Message, make_topology

NS_PER_BYTE = 50


def make_fabric(name="full", nprocs=4):
    sim = Simulator()
    return sim, Fabric(sim, make_topology(name, nprocs), NS_PER_BYTE)


def run_transfers(sim, fabric, messages, starts=None):
    """Run transfers; return list of (start, end, TransferResult)."""
    out = [None] * len(messages)

    def proc(i, message, delay):
        if delay:
            yield sim.timeout(delay)
        begin = sim.now
        result = yield from fabric.transmit(message)
        out[i] = (begin, sim.now, result)

    starts = starts or [0] * len(messages)
    for i, (message, delay) in enumerate(zip(messages, starts)):
        sim.spawn(proc(i, message, delay))
    sim.run()
    return out


def test_uncontended_transfer_takes_transmission_time():
    sim, fabric = make_fabric()
    [(begin, end, result)] = run_transfers(sim, fabric, [Message(0, 1, 32)])
    assert end - begin == 32 * NS_PER_BYTE == 1_600
    assert result.latency_ns == 1_600
    assert result.contention_ns == 0


def test_control_message_is_faster():
    sim, fabric = make_fabric()
    [(begin, end, result)] = run_transfers(sim, fabric, [Message(0, 1, 8)])
    assert end - begin == 400
    assert result.latency_ns == 400


def test_local_message_is_free():
    sim, fabric = make_fabric()
    [(_, _, result)] = run_transfers(sim, fabric, [Message(2, 2, 32)])
    assert result.latency_ns == 0
    assert result.contention_ns == 0
    assert fabric.messages == 0  # never touched the network


def test_same_link_contention_is_measured():
    sim, fabric = make_fabric()
    results = run_transfers(
        sim, fabric,
        [Message(0, 1, 32), Message(0, 1, 32)],
    )
    # Second message queued behind the first on link (0,1).
    (b0, e0, r0), (b1, e1, r1) = results
    assert r0.contention_ns == 0
    assert r1.contention_ns == 1_600
    assert e1 == 3_200


def test_disjoint_links_do_not_contend():
    sim, fabric = make_fabric()
    results = run_transfers(
        sim, fabric,
        [Message(0, 1, 32), Message(2, 3, 32)],
    )
    for _, end, result in results:
        assert result.contention_ns == 0
        assert end == 1_600


def test_multihop_blocks_holding_upstream_links():
    sim, fabric = make_fabric("mesh", 4)  # 2x2 mesh
    # 0 -> 3 routes X-first through node 1: links (0,1), (1,3).  The
    # engine grants (1,3) to the single-hop message first, so the
    # multihop message stalls *holding* (0,1) -- wormhole head-of-line
    # blocking.
    results = run_transfers(
        sim, fabric,
        [Message(0, 3, 32), Message(1, 3, 32)],
    )
    (_, e0, r0), (_, e1, r1) = results
    assert r1.contention_ns == 0 and e1 == 1_600
    assert r0.contention_ns == 1_600 and e0 == 3_200


def test_multihop_queueing_behind_held_circuit():
    sim, fabric = make_fabric("mesh", 4)
    # Start the multihop circuit strictly first; the later single-hop
    # message then waits for the whole circuit to clear.
    results = run_transfers(
        sim, fabric,
        [Message(0, 3, 32), Message(1, 3, 32)],
        starts=[0, 100],
    )
    (_, e0, r0), (_, e1, r1) = results
    assert r0.contention_ns == 0 and e0 == 1_600
    assert r1.contention_ns == 1_500 and e1 == 3_200


def test_multihop_latency_is_hop_count_independent():
    # Circuit switching with negligible switch delay: transmission time
    # dominates, as the paper observes for all three networks.
    sim, fabric = make_fabric("mesh", 16)
    [(begin, end, result)] = run_transfers(sim, fabric, [Message(0, 15, 32)])
    assert result.latency_ns == 1_600
    assert end - begin == 1_600


def test_opposite_directions_are_independent_links():
    sim, fabric = make_fabric()
    results = run_transfers(
        sim, fabric,
        [Message(0, 1, 32), Message(1, 0, 32)],
    )
    for _, end, result in results:
        assert result.contention_ns == 0
        assert end == 1_600


def test_fabric_instrumentation():
    sim, fabric = make_fabric()
    run_transfers(sim, fabric, [Message(0, 1, 32), Message(0, 1, 8)])
    assert fabric.messages == 2
    assert fabric.bytes_transported == 40
    assert fabric.total_latency_ns == 2_000
    # The 8-byte message was scheduled second and waited out the
    # 32-byte transfer.
    assert fabric.total_contention_ns == 1_600


def test_link_busy_accounting():
    sim, fabric = make_fabric()
    run_transfers(sim, fabric, [Message(0, 1, 32)])
    link = fabric.link(0, 1)
    assert link.messages == 1
    assert link.bytes_carried == 32
    assert link.busy_ns == 1_600
    assert link.utilization(3_200) == 0.5


def test_missing_link_raises():
    sim, fabric = make_fabric("mesh", 4)
    with pytest.raises(TopologyError):
        fabric.link(0, 3)  # not adjacent in a 2x2 mesh


def test_post_runs_in_background():
    sim, fabric = make_fabric()
    fabric.post(Message(0, 1, 32, "wb"))
    sim.run()
    assert fabric.messages == 1
    assert sim.now == 1_600


def test_message_validation():
    with pytest.raises(ValueError):
        Message(0, 1, 0)
    with pytest.raises(ValueError):
        Message(-1, 1, 8)


def test_busiest_links():
    sim, fabric = make_fabric()
    run_transfers(sim, fabric, [Message(0, 1, 32), Message(0, 2, 8)])
    busiest = fabric.busiest_links(1)
    assert busiest[0].src == 0 and busiest[0].dst == 1


def test_switch_delay_adds_per_hop_latency():
    sim = Simulator()
    fabric = Fabric(sim, make_topology("mesh", 16), NS_PER_BYTE,
                    switch_delay_ns=100)
    [(begin, end, result)] = run_transfers(sim, fabric, [Message(0, 15, 32)])
    # 0 -> 15 in a 4x4 mesh: 6 hops.
    assert result.latency_ns == 1_600 + 6 * 100
    assert end - begin == result.latency_ns
    assert result.contention_ns == 0


def test_zero_switch_delay_matches_paper_assumption():
    sim = Simulator()
    fabric = Fabric(sim, make_topology("mesh", 16), NS_PER_BYTE)
    [(_, _, far)] = run_transfers(sim, fabric, [Message(0, 15, 32)])
    sim2 = Simulator()
    fabric2 = Fabric(sim2, make_topology("mesh", 16), NS_PER_BYTE)
    [(_, _, near)] = run_transfers(sim2, fabric2, [Message(0, 1, 32)])
    assert far.latency_ns == near.latency_ns  # hop-count independent


# -- the general transfer path (faults or message hooks) ---------------------


class _MessageLog(Checker):
    """Records every finished message transport."""

    name = "message-log"

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_message(self, now, src, dst, kind, nbytes, delivered):
        self.seen.append((now, src, dst, kind, nbytes, delivered))


def test_failed_link_tears_down_the_whole_partial_circuit():
    # 0 -> 15 in a 4x4 mesh crosses six links; the fifth is dead, so the
    # worm holds four upstream links when its head reaches it.
    topology = make_topology("mesh", 16)
    fault = FaultConfig(link_failures=(LinkFailure(7, 11, 0, 10**9),))
    injector = FaultInjector(fault, RandomStreams(3), topology=topology)
    sim = Simulator()
    fabric = Fabric(sim, topology, NS_PER_BYTE, injector=injector)
    [(_, _, result)] = run_transfers(sim, fabric, [Message(0, 15, 32)])
    assert not result.delivered
    assert injector.window_drops == 1
    assert fabric.messages == 1
    route = fabric._route_links[15]
    assert len(route) == 6
    assert all(link.in_use == 0 for link in route)
    # Nothing was carried: the circuit never completed.
    assert all(link.messages == 0 for link in route)


@pytest.mark.parametrize("make_sim", [
    pytest.param(Simulator, id="object"),
    pytest.param(SoaSimulator, id="soa"),
    pytest.param(CompiledSimulator, id="compiled", marks=pytest.mark.skipif(
        not HAVE_EXTENSION, reason="_csoa extension not built")),
])
def test_failure_window_hits_a_circuit_head_granted_after_waiting(make_sim):
    # Link (7, 11) fails at t=1000.  A 7 -> 11 transfer holds it from 0
    # to 1600 (granted before the window opens), so the 0 -> 15 worm
    # builds four upstream links, waits at (7, 11), and is granted it
    # at 1600 -- inside the window.  A 0 -> 1 transfer queued behind the
    # worm's first link must be handed that link by the teardown.
    topology = make_topology("mesh", 16)
    fault = FaultConfig(link_failures=(LinkFailure(7, 11, 1000, 10**9),))
    injector = FaultInjector(fault, RandomStreams(3), topology=topology)
    sim = make_sim()
    fabric = Fabric(sim, topology, NS_PER_BYTE, injector=injector)
    out = run_transfers(
        sim, fabric,
        [Message(7, 11, 32), Message(0, 15, 32), Message(0, 1, 8)],
        starts=[0, 0, 100],
    )
    (_, e_hold, held), (_, e_worm, worm), (_, e_late, late) = out
    assert held.delivered and e_hold == 1_600
    assert not worm.delivered and e_worm == 1_600
    assert worm.contention_ns == 1_600  # the wait for (7, 11)
    assert injector.window_drops == 1
    assert late.delivered and late.contention_ns == 1_500
    assert e_late == 1_600 + 400
    assert fabric.messages == 3
    assert fabric.link(7, 11).grants == 2
    for link in fabric.links:
        assert link.in_use == 0 and link.queue_length == 0


def test_node_stalls_delay_injection_and_ejection():
    # Node 0 is frozen over [0, 1000) and node 1 over [1500, 3000): the
    # 0 -> 1 message injects at 1000, transmits until 2600, and waits
    # out the receiver's window until 3000.  Neither wait is latency or
    # contention.  The 2 -> 3 message touches no stalled node.
    topology = make_topology("full", 4)
    fault = FaultConfig(node_stalls=(NodeStall(0, 0, 1000),
                                     NodeStall(1, 1500, 3000)))
    injector = FaultInjector(fault, RandomStreams(3), topology=topology)
    sim = Simulator()
    fabric = Fabric(sim, topology, NS_PER_BYTE, injector=injector)
    (_, e_stalled, stalled), (_, e_free, free) = run_transfers(
        sim, fabric, [Message(0, 1, 32), Message(2, 3, 32)])
    assert e_stalled == 3_000 and e_free == 1_600
    assert (stalled.latency_ns, stalled.contention_ns) == (1_600, 0)
    assert stalled.delivered and free.delivered
    assert injector.stall_ns_injected == 1_000 + 400


def test_hooked_general_path_accounts_like_the_plain_path():
    # Contended traffic over shared mesh links, with staggered starts.
    messages = [Message(0, 15, 32), Message(1, 15, 8), Message(4, 14, 32),
                Message(0, 3, 8), Message(5, 6, 32), Message(2, 11, 8)]
    starts = [0, 0, 100, 0, 250, 400]
    sim = Simulator()
    plain = Fabric(sim, make_topology("mesh", 16), NS_PER_BYTE)
    plain_out = run_transfers(sim, plain, messages, starts)
    log = _MessageLog()
    sim = Simulator()
    hooked = Fabric(sim, make_topology("mesh", 16), NS_PER_BYTE,
                    checkers=CheckerSet("basic", [log]))
    hooked_out = run_transfers(sim, hooked, messages, starts)
    assert plain.is_plain and not hooked.is_plain
    assert plain.total_contention_ns > 0  # the traffic really contends
    assert [(b, e, r.latency_ns, r.contention_ns, r.delivered)
            for b, e, r in hooked_out] == [
        (b, e, r.latency_ns, r.contention_ns, r.delivered)
        for b, e, r in plain_out]
    for a, b in zip(plain.links, hooked.links):
        assert (a.messages, a.bytes_carried, a.busy_ns, a.in_use,
                a.grants, a.total_wait_ns) == (
            b.messages, b.bytes_carried, b.busy_ns, b.in_use, b.grants,
            b.total_wait_ns)
    assert sum(link.total_wait_ns for link in hooked.links) > 0
    assert (plain.messages, plain.bytes_transported, plain.total_latency_ns,
            plain.total_contention_ns) == (
        hooked.messages, hooked.bytes_transported, hooked.total_latency_ns,
        hooked.total_contention_ns)
    assert len(log.seen) == len(messages)
