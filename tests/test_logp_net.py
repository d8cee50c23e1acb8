"""The LogP network model: L delays and g-gap gating."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.logp_net import LogPNetwork, Trip
from repro.core.params import LogPParams
from repro.engine import Simulator
from repro.network import make_topology


def make_net(g=1_000, L=1_600, per_event_type=False, nprocs=4):
    sim = Simulator()
    params = LogPParams(L_ns=L, g_ns=g, o_ns=0, P=nprocs)
    return sim, LogPNetwork(sim, params, per_event_type=per_event_type)


def test_single_message_takes_L():
    sim, net = make_net()
    trip = net.one_way(0, 1)
    assert trip.total_ns == 1_600
    assert trip.latency_ns == 1_600
    assert trip.stall_ns == 0
    assert trip.messages == 1


def test_round_trip_is_2L_plus_service():
    sim, net = make_net(g=0)
    trip = net.round_trip(0, 1, service_ns=300)
    assert trip.total_ns == 2 * 1_600 + 300
    assert trip.latency_ns == 3_200
    assert trip.service_ns == 300
    assert trip.messages == 2
    assert trip.retry_ns == 0
    assert isinstance(trip, Trip)


def test_sender_gap_stalls_second_send():
    sim, net = make_net(g=2_000)
    first = net.one_way(0, 1)
    second = net.one_way(0, 2)
    assert first.stall_ns == 0
    # Second send waits until g after the first.
    assert second.stall_ns == 2_000
    assert second.total_ns == 2_000 + 1_600


def test_receiver_gap_stalls_back_to_back_arrivals():
    sim, net = make_net(g=2_000)
    net.one_way(0, 3)
    trip = net.one_way(1, 3)
    # Arrives at 1600 but node 3's gate is busy until 2000... wait:
    # receive gate opened at 1600 + g.  Second arrival at 1600 must wait
    # until 3600.
    assert trip.stall_ns == 2_000
    assert trip.total_ns == 1_600 + 2_000


def test_strict_gating_couples_sends_and_receives():
    """The paper's complaint: a node cannot overlap a send with a receive."""
    sim, net = make_net(g=2_000, per_event_type=False)
    net.one_way(0, 1)  # node 0 sends at t=0
    trip = net.one_way(2, 0)  # message into node 0
    # Node 0's single gate is closed until 2000; arrival at 1600 stalls.
    assert trip.stall_ns == 400


def test_per_event_type_gating_decouples_them():
    sim, net = make_net(g=2_000, per_event_type=True)
    net.one_way(0, 1)
    trip = net.one_way(2, 0)
    # Separate receive gate: no stall.
    assert trip.stall_ns == 0


def test_per_event_type_still_gates_same_kind():
    sim, net = make_net(g=2_000, per_event_type=True)
    net.one_way(0, 1)
    second = net.one_way(0, 2)
    assert second.stall_ns == 2_000


def test_zero_gap_never_stalls():
    sim, net = make_net(g=0)
    for _ in range(5):
        assert net.one_way(0, 1).stall_ns == 0


def test_gates_respect_simulated_time():
    sim, net = make_net(g=2_000)

    def proc():
        net.one_way(0, 1)
        yield sim.timeout(10_000)  # far beyond the gate
        trip = net.one_way(0, 2)
        assert trip.stall_ns == 0

    sim.spawn(proc())
    sim.run()


def test_instrumentation_counters():
    sim, net = make_net(g=2_000)
    net.round_trip(0, 1)
    assert net.messages == 2
    assert net.total_stall_ns >= 0


def test_round_trip_reply_gated_at_remote():
    sim, net = make_net(g=5_000)
    trip = net.round_trip(0, 1)
    # Remote receive at L=1600 reserves node 1's gate to 6600; the reply
    # send then stalls 5000.
    assert trip.stall_ns == 5_000
    assert trip.total_ns == 1_600 + 5_000 + 1_600


def test_o_parameter_adds_to_latency():
    sim = Simulator()
    params = LogPParams(L_ns=1_600, g_ns=0, o_ns=100, P=4)
    net = LogPNetwork(sim, params)
    trip = net.one_way(0, 1)
    assert trip.latency_ns == 1_800
    assert trip.total_ns == 1_800


def test_trip_is_an_immutable_record_with_zero_retry_default():
    trip = Trip(10, 8, 2, 0, 1)
    assert trip.retry_ns == 0
    assert trip == Trip(total_ns=10, latency_ns=8, stall_ns=2,
                        service_ns=0, messages=1, retry_ns=0)
    with pytest.raises(AttributeError):
        trip.total_ns = 0


class GateOracle:
    """The LogP definition, written out independently of the model.

    Per leg: ``start = max(at, gate); gate = start + g`` at the sender,
    then the same at the receiver for the arrival ``start + L``; the
    stall is the two waits and the trip costs ``L + 2o + stall``.  With
    strict gating a node has one gate for sends and receives.  Adaptive
    ``g`` is the configured gap scaled by the observed mean hop count
    over the uniform all-pairs mean, clamped at 1.
    """

    def __init__(self, params, per_event_type, topology):
        self.params = params
        self.topology = topology
        self.send = [0] * params.P
        self.recv = [0] * params.P if per_event_type else self.send
        self.messages = 0
        self.stall = 0
        self.hops = []
        self.calls = []
        if topology is not None:
            pairs = [(a, b) for a in range(params.P)
                     for b in range(params.P) if a != b]
            self.uniform = (sum(topology.hops(a, b) for a, b in pairs)
                            / len(pairs))

    def gap(self):
        g = self.params.g_ns
        if self.topology is None or not self.hops:
            return g
        observed = sum(self.hops) / len(self.hops)
        return round(g * min(1.0, observed / self.uniform))

    def leg(self, src, dst, at):
        if self.topology is not None:
            self.hops.append(self.topology.hops(src, dst))
        g = self.gap()
        start = max(at, self.send[src])
        self.send[src] = start + g
        arrived = start + self.params.L_ns
        received = max(arrived, self.recv[dst])
        self.recv[dst] = received + g
        stall = (start - at) + (received - arrived)
        self.messages += 1
        self.stall += stall
        self.calls.append((received, src, dst, "logp", 0, True))
        total = self.params.L_ns + 2 * self.params.o_ns + stall
        return total, stall

    def one_way(self, src, dst, at):
        total, stall = self.leg(src, dst, at)
        o2 = 2 * self.params.o_ns
        return Trip(total, self.params.L_ns + o2, stall, 0, 1, 0)

    def round_trip(self, src, dst, at, service_ns):
        request, request_stall = self.leg(src, dst, at)
        reply, reply_stall = self.leg(dst, src, at + request + service_ns)
        latency = 2 * (self.params.L_ns + 2 * self.params.o_ns)
        return Trip(request + service_ns + reply, latency,
                    request_stall + reply_stall, service_ns, 2, 0)


NODES = 4

operations = st.lists(
    st.tuples(
        st.sampled_from(["one_way", "round_trip"]),
        st.integers(0, NODES - 1),  # src
        st.integers(0, NODES - 1),  # dst
        st.integers(0, 6_000),      # simulated time that passes first
        st.integers(0, 4_000),      # one_way: start_at lead over now
        st.integers(0, 2_000),      # round_trip: service_ns
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    ops=operations,
    L=st.integers(1, 3_000),
    g=st.integers(0, 4_000),
    o=st.integers(1, 300),
    per_event_type=st.booleans(),
    adaptive=st.booleans(),
)
def test_gates_match_the_logp_definition(ops, L, g, o, per_event_type,
                                         adaptive):
    sim = Simulator()
    params = LogPParams(L_ns=L, g_ns=g, o_ns=o, P=NODES)
    topology = make_topology("mesh", NODES) if adaptive else None
    calls = []
    checkers = SimpleNamespace(
        message_hooks=(lambda *args: calls.append(args),), arq_checkers=(),
    )
    net = LogPNetwork(sim, params, per_event_type=per_event_type,
                      topology=topology, adaptive=adaptive,
                      checkers=checkers)
    oracle = GateOracle(params, per_event_type, topology)

    def driver():
        for kind, src, dst, advance, lead, service in ops:
            if advance:
                yield sim.timeout(advance)
            if kind == "one_way":
                at = sim.now + lead
                got = net.one_way(src, dst, at)
                want = oracle.one_way(src, dst, at)
            else:
                got = net.round_trip(src, dst, service_ns=service)
                want = oracle.round_trip(src, dst, sim.now, service)
            assert got == want

    sim.spawn(driver())
    sim.run()
    assert net.messages == oracle.messages
    assert net.total_stall_ns == oracle.stall
    assert net._send_gate == oracle.send
    assert net._recv_gate == oracle.recv
    assert (net._send_gate is net._recv_gate) == (not per_event_type)
    assert calls == oracle.calls
