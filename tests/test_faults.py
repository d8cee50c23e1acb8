"""Fault injection, reliable delivery, and the engine watchdog."""

import pytest

from repro import (
    ConfigError,
    FaultConfig,
    LinkFailure,
    NodeStall,
    RetryLimitError,
    SystemConfig,
    WatchdogError,
    make_app,
    simulate,
)
from repro.core.logp_net import LogPNetwork
from repro.core.params import LogPParams
from repro.engine.core import Simulator
from repro.engine.rng import FAULT_STREAM, RandomStreams
from repro.faults.injector import FaultInjector, make_injector
from repro.faults.reliable import RetryPolicy
from repro.network import Fabric, Message, make_topology

ALL_MACHINES = ("target", "logp", "clogp", "ideal")


def _run(machine, fault=None, seed=7, app="fft", nprocs=4, **app_kw):
    app_kw.setdefault("points", 256)
    config = SystemConfig(
        processors=nprocs, seed=seed,
        fault=fault if fault is not None else FaultConfig(),
    )
    return simulate(make_app(app, nprocs, **app_kw), machine, config)


def _comparable(result):
    data = result.to_dict()
    data.pop("wall_seconds")  # host timing noise
    return data


# -- configuration ----------------------------------------------------------------


def test_fault_config_validation():
    with pytest.raises(ConfigError):
        FaultConfig(drop_rate=1.5)
    with pytest.raises(ConfigError):
        FaultConfig(drop_rate=0.6, corrupt_rate=0.6)
    with pytest.raises(ConfigError):
        FaultConfig(backoff=0.5)
    with pytest.raises(ConfigError):
        LinkFailure(0, 1, 100, 100)
    with pytest.raises(ConfigError):
        NodeStall(0, -5, 10)


def test_policy_knobs_alone_do_not_enable():
    assert not FaultConfig().enabled
    assert not FaultConfig(retry_timeout_ns=1, max_retries=0, seed=9).enabled
    assert FaultConfig(drop_rate=0.01).enabled
    assert FaultConfig(link_failures=(LinkFailure(0, 1, 0, 10),)).enabled
    assert FaultConfig(node_stalls=(NodeStall(2, 0, 10),)).enabled


def test_make_injector_is_none_when_inert():
    streams = RandomStreams(1)
    assert make_injector(FaultConfig(), streams) is None
    assert make_injector(None, streams) is None
    assert make_injector(FaultConfig(drop_rate=0.1), streams) is not None


def test_config_rejects_non_fault_config():
    with pytest.raises(ConfigError):
        SystemConfig(fault="drop everything")


# -- satellite 1: dedicated RNG stream ----------------------------------------------


def test_fault_stream_is_independent_of_app_streams():
    streams = RandomStreams(42)
    before = streams.stream("app", 0).random(4).tolist()
    # Drawing from the fault stream must not perturb app streams.
    streams = RandomStreams(42)
    streams.fault_stream().random(1000)
    after = streams.stream("app", 0).random(4).tolist()
    assert before == after


def test_fault_stream_is_deterministic():
    a = RandomStreams(42).fault_stream().random(8).tolist()
    b = RandomStreams(42).fault_stream().random(8).tolist()
    assert a == b
    assert FAULT_STREAM.startswith("__")


@pytest.mark.parametrize("machine", ALL_MACHINES)
def test_zero_rate_fault_config_is_bit_identical(machine):
    """A config with every rate at zero must not perturb the run at all,
    even with non-default policy knobs (satellite 1 acceptance)."""
    plain = _run(machine)
    inert = _run(machine, FaultConfig(retry_timeout_ns=5_000, max_retries=3,
                                      backoff=4.0, seed=99))
    assert _comparable(plain) == _comparable(inert)
    assert all(b.retry_ns == 0 for b in plain.buckets)


@pytest.mark.parametrize("machine", ("target", "logp", "clogp"))
def test_node_stall_is_charged_as_retry_time(machine):
    # Node 1 is frozen for the first 200 us: its messages wait out the
    # window, and that wait is recovery time, not latency or contention.
    # The baseline runs the same reliable-delivery layer (enabled by a
    # link window that never opens during the run) without the stall.
    never = (LinkFailure(0, 1, 10**15, 10**15 + 1),)
    stalled = _run(machine, FaultConfig(
        link_failures=never, node_stalls=(NodeStall(1, 0, 200_000),)))
    baseline = _run(machine, FaultConfig(link_failures=never))
    assert stalled.verified
    retry = sum(b.retry_ns for b in stalled.buckets)
    assert retry > sum(b.retry_ns for b in baseline.buckets)
    assert stalled.total_ns > baseline.total_ns


# -- injector verdicts --------------------------------------------------------------


class _RecordingInjector(FaultInjector):
    """An injector that logs every verdict it hands out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fates = []

    def fate(self, src, dst, now, check_route=False):
        verdict = super().fate(src, dst, now, check_route=check_route)
        self.fates.append(verdict)
        return verdict


def test_fabric_adds_each_drawn_delay_after_transmission():
    # Every message draws a delay: the general fabric waits it out after
    # the transmission, and books it as neither latency nor contention.
    topology = make_topology("full", 4)
    injector = _RecordingInjector(FaultConfig(delay_rate=1.0, delay_ns=500),
                                  RandomStreams(3), topology=topology)
    sim = Simulator()
    fabric = Fabric(sim, topology, 50, injector=injector)
    out = []

    def send(src, dst, start):
        yield start
        begin = sim.now
        result = yield from fabric.transmit(Message(src, dst, 32))
        out.append((sim.now - begin, result))

    sim.spawn(send(0, 1, 0))
    sim.spawn(send(2, 3, 10))
    sim.run()
    delays = [fate.delay_ns for fate in injector.fates]
    assert len(delays) == 2 and min(delays) > 0 and delays[0] != delays[1]
    assert injector.delayed == 2
    for (elapsed, result), delay in zip(out, delays):
        assert elapsed == 32 * 50 + delay
        assert (result.latency_ns, result.contention_ns) == (1_600, 0)
        assert result.delivered


def test_logp_adds_each_drawn_delay_to_the_arrival():
    # arrived = sent + L + delay: the drawn delay of each message lands
    # in its trip, as retry time (the ack's own draw does not delay it).
    fault = FaultConfig(delay_rate=1.0, delay_ns=500)
    injector = _RecordingInjector(fault, RandomStreams(3))
    sim = Simulator()
    L = 1_600
    net = LogPNetwork(sim, LogPParams(L_ns=L, g_ns=0, o_ns=0, P=4),
                      injector=injector,
                      retry_policy=RetryPolicy.from_fault(fault))
    first = net.one_way(0, 1)
    second = net.one_way(2, 3)
    # Fates alternate message, ack, message, ack.
    delays = [fate.delay_ns for fate in injector.fates[::2]]
    assert len(injector.fates) == 4
    assert min(delays) > 0 and delays[0] != delays[1]
    for trip, delay in zip((first, second), delays):
        assert trip.total_ns == 2 * L + delay
        assert trip.latency_ns == L
        assert trip.stall_ns == 0
        assert trip.retry_ns == L + delay


def test_injector_rates_are_respected():
    fault = FaultConfig(drop_rate=0.25, corrupt_rate=0.25, delay_rate=0.25)
    injector = FaultInjector(fault, RandomStreams(3))
    n = 4000
    for _ in range(n):
        injector.fate(0, 1, 0)
    assert injector.dropped == pytest.approx(n * 0.25, rel=0.15)
    assert injector.corrupted == pytest.approx(n * 0.25, rel=0.15)
    assert injector.delayed == pytest.approx(n * 0.25, rel=0.15)


def test_window_only_config_consumes_no_randomness():
    fault = FaultConfig(link_failures=(LinkFailure(0, 1, 0, 1000),))
    injector = FaultInjector(fault, RandomStreams(3))
    state = injector._rng.bit_generator.state
    assert injector.fate(2, 3, 500).delivered
    assert injector._rng.bit_generator.state == state


def test_link_window_drops_on_route():
    from repro.network import make_topology

    fault = FaultConfig(link_failures=(LinkFailure(0, 1, 0, 1000),))
    topology = make_topology("full", 4)
    injector = FaultInjector(fault, RandomStreams(3), topology=topology)
    assert not injector.fate(0, 1, 0, check_route=True).delivered
    assert injector.fate(0, 1, 1000, check_route=True).delivered  # window over
    assert injector.fate(2, 3, 0, check_route=True).delivered  # other link


def test_node_stall_window():
    fault = FaultConfig(node_stalls=(NodeStall(1, 100, 400),))
    injector = FaultInjector(fault, RandomStreams(3))
    assert injector.stall_ns(1, 50) == 0
    assert injector.stall_ns(1, 150) == 250  # frozen until 400
    assert injector.stall_ns(1, 400) == 0
    assert injector.stall_ns(0, 150) == 0


def test_retry_policy_backoff():
    policy = RetryPolicy.from_fault(FaultConfig(retry_timeout_ns=1000,
                                                backoff=2.0, max_retries=5))
    assert policy.backoff_ns(1) == 1000
    assert policy.backoff_ns(2) == 2000
    assert policy.backoff_ns(4) == 8000


# -- end-to-end fault runs ----------------------------------------------------------


@pytest.mark.parametrize("machine", ("target", "clogp"))
def test_nonzero_drop_completes_with_retry_overhead(machine):
    result = _run(machine, FaultConfig(drop_rate=0.02, retry_timeout_ns=5_000))
    assert result.verified
    total_retry = sum(b.retry_ns for b in result.buckets)
    assert total_retry > 0
    assert result.mean_retry_us > 0
    assert result.metric("retry") == result.mean_retry_us
    # Buckets still partition each processor's time.
    baseline = _run(machine)
    assert result.total_ns > baseline.total_ns


@pytest.mark.parametrize("machine", ("target", "logp", "clogp"))
def test_faulty_runs_are_deterministic(machine):
    fault = FaultConfig(drop_rate=0.02, delay_rate=0.02,
                        retry_timeout_ns=5_000)
    a = _run(machine, fault)
    b = _run(machine, fault)
    assert _comparable(a) == _comparable(b)


def test_fault_seed_decouples_from_master_seed():
    fault = FaultConfig(drop_rate=0.05, seed=1234, retry_timeout_ns=5_000)
    a = _run("clogp", fault, seed=7)
    b = _run("clogp", fault, seed=7)
    assert _comparable(a) == _comparable(b)


@pytest.mark.parametrize("machine", ("target", "clogp"))
def test_retry_cap_raises_typed_error(machine):
    """Total loss must surface as RetryLimitError, not a hang."""
    fault = FaultConfig(drop_rate=1.0, max_retries=2, retry_timeout_ns=1_000)
    with pytest.raises(RetryLimitError) as info:
        _run(machine, fault)
    assert info.value.attempts == 3  # initial try + 2 retries
    assert "undeliverable" in str(info.value)


def test_transient_link_failure_is_recovered():
    """Messages during the window are retried past it; the run completes."""
    fault = FaultConfig(
        link_failures=(LinkFailure(0, 1, 0, 50_000),),
        retry_timeout_ns=30_000,
        max_retries=10,
    )
    result = _run("clogp", fault)
    assert result.verified


def test_node_stall_slows_target_run():
    fault = FaultConfig(node_stalls=(NodeStall(0, 0, 40_000),))
    stalled = _run("target", fault)
    baseline = _run("target")
    assert stalled.verified
    assert stalled.total_ns > baseline.total_ns


# -- watchdog -----------------------------------------------------------------------


def test_watchdog_raises_with_diagnostics():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(10)

    sim.spawn(ticker(), name="ticker")
    with pytest.raises(WatchdogError) as info:
        sim.run(max_events=100)
    assert info.value.events == 100
    assert info.value.blocked == 1
    assert "watchdog" in str(info.value)


def test_watchdog_not_triggered_by_finite_run():
    sim = Simulator()

    def once():
        yield sim.timeout(10)
        return "done"

    process = sim.spawn(once())
    sim.run(max_events=1_000_000)
    assert process.value == "done"


def test_until_ns_alias():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(10)

    sim.spawn(ticker())
    assert sim.run(until_ns=55) == 55
    with pytest.raises(Exception):
        sim.run(until=10, until_ns=10)


def test_simulate_forwards_max_events():
    fault = FaultConfig(drop_rate=0.02, retry_timeout_ns=5_000)
    config = SystemConfig(processors=4, fault=fault)
    with pytest.raises(WatchdogError):
        simulate(make_app("fft", 4, points=256), "target", config,
                 max_events=50)


# -- ARQ edge cases -----------------------------------------------------------------


class _ScriptedFabric:
    """Fabric stand-in whose transfers follow a scripted fate sequence.

    Every transfer takes 10 ns: 6 ns of latency and 4 ns of contention.
    ``sent`` logs the kind of each transfer in order.
    """

    def __init__(self, sim, script):
        self.sim = sim
        self.script = list(script)
        self.sent = []

    def send(self, src, dst, nbytes, kind, result):
        self.sent.append(kind)
        delivered = self.script.pop(0)
        yield self.sim.timeout(10)
        result.latency_ns = 6
        result.contention_ns = 4
        result.delivered = delivered
        return 6


def _drive_reliable(script, max_retries=8, checkers=None):
    """One logical 0 -> 1 message sent on behalf of processor 3.

    Returns the transport, the scripted fabric, the returned latency,
    and the ``(pid, retry_ns)`` pairs the transport banked.
    """
    from repro.faults.reliable import ReliableTransport

    sim = Simulator()
    fabric = _ScriptedFabric(sim, script)
    banked = []
    transport = ReliableTransport(
        fabric,
        RetryPolicy(timeout_ns=100, max_retries=max_retries, backoff=2.0),
        lambda pid, retry_ns: banked.append((pid, retry_ns)),
        checkers=checkers,
    )
    box = {}

    def proc():
        box["latency"] = yield from transport.send(3, 0, 1, 32, "mp")

    sim.spawn(proc())
    sim.run()
    return transport, fabric, box["latency"], banked


def test_arq_duplicate_suppression_under_repeated_ack_loss():
    # data ok / ack lost, twice over -- the receiver must discard both
    # retransmitted copies before the final ack lands.
    script = [True, False, True, False, True, True]
    transport, fabric, latency, banked = _drive_reliable(script)
    assert transport.duplicates_suppressed == 2
    assert transport.acks_lost == 2
    assert transport.retransmissions == 2
    assert fabric.sent.count("mp") == 3  # attempts
    assert fabric.sent == ["mp", "ack"] * 3
    # The first delivery (0-10 ns) is latency plus contention;
    # everything after it -- two lost acks, backoffs of 100 and 200 ns,
    # two duplicate copies and the final ack -- is retry time, banked
    # for pid 3.
    assert latency == 6
    assert banked == [(3, 350)]


def test_arq_exactly_once_checker_sees_one_accepted_delivery():
    from repro.checkers import CheckerSet, ExactlyOnceChecker

    checker = ExactlyOnceChecker()
    checkers = CheckerSet("basic", [checker])
    transport, _fabric, _latency, banked = _drive_reliable(
        [True, False, True, True], checkers=checkers
    )
    assert transport.duplicates_suppressed == 1
    assert checker.duplicates == 1
    assert checker._accepted[(0, 1)] == 1
    assert checker._completed[(0, 1)] == 1
    assert banked == [(3, 130)]  # ack, 100 ns backoff, duplicate, ack

    class _M:
        pass

    machine = _M()
    machine.sim = Simulator()
    checker.finalize(machine)  # balanced channels: must not raise


def test_arq_retry_limit_error_at_exact_cap():
    # max_retries=3 tolerates exactly 3 failed attempts: a success on
    # the 4th transmission completes ...
    transport, fabric, latency, banked = _drive_reliable(
        [False, False, False, True, True], max_retries=3
    )
    assert fabric.sent.count("mp") == 4  # attempts
    assert transport.retransmissions == 3
    # Three lost copies and backoffs of 100, 200 and 400 ns precede the
    # delivery at 730-740 ns; its ack lands at 750 ns.
    assert latency == 6
    assert banked == [(3, 740)]
    # ... while a 4th consecutive failure exhausts the cap.
    with pytest.raises(RetryLimitError):
        _drive_reliable([False, False, False, False], max_retries=3)


def test_arq_banks_the_ack_of_a_clean_exchange():
    transport, fabric, latency, banked = _drive_reliable([True, True])
    assert fabric.sent == ["mp", "ack"]
    assert latency == 6
    # The ack's 10 ns are recovery time too: a reliable exchange is
    # never free beyond its data transfer.
    assert banked == [(3, 10)]
    assert transport.retransmissions == 0


@pytest.mark.parametrize("machine", ALL_MACHINES)
def test_retry_bucket_zero_on_fault_free_runs(machine):
    result = _run(machine)
    assert all(b.retry_ns == 0 for b in result.buckets)
    assert result.total_ns == max(b.total_ns for b in result.buckets)
