"""The simulation service: coalescing, shedding, breaker, drain.

Two layers of coverage:

* **event-loop tests** drive :class:`ReproService.serve_spec` directly
  against a deterministic stub backend whose completion the test gates,
  so coalescing, shedding, and failure propagation are asserted without
  racing a real pool;
* **socket tests** run the full daemon (real HTTP framing, real
  supervised process pool) via the in-thread harness and re-assert the
  headline contracts end-to-end: 32 concurrent identical cold requests
  cost exactly one simulation and every body is byte-identical to a
  serial reference, warm requests replay the same bytes, and a drain
  exits 0.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import RunSpec
from repro.core.runner import simulate_spec
from repro.exec.backend import PointFailure, failure_from
from repro.exec.store import ResultStore
from repro.errors import ReproError, WorkerCrashError
from repro.runspec import canonical_json
from repro.service import BreakerState, CircuitBreaker, ServiceConfig
from repro.service.app import ReproService, result_payload
from repro.service.testing import serve_in_thread


def quick_spec(nprocs: int = 1, app: str = "fft", machine: str = "ideal"):
    return RunSpec.build(app, machine, nprocs, preset="quick")


def reference_body(spec: RunSpec) -> bytes:
    """The canonical servable bytes of one serially simulated spec."""
    result = simulate_spec(spec)
    payload = result_payload(spec.spec_digest(), result)
    return canonical_json(payload).encode("utf-8")


# -- deterministic stub backend ------------------------------------------------------


class StubBackend:
    """A backend whose outcomes and timing the test controls.

    ``gate`` (when given) blocks every batch until the test releases
    it, so requests can be piled up behind an in-flight point.
    ``outcome_fn`` maps a spec to its outcome; the default simulates
    in-process (quick specs are milliseconds).
    """

    def __init__(self, outcome_fn=None, gate=None, on_batch=None):
        self.jobs = 2
        self.gate = gate
        self.outcome_fn = outcome_fn or simulate_spec
        self.on_batch = on_batch
        self.batches = []
        self.listeners = []
        self.aborted = False
        self.closed = False

    def add_rebuild_listener(self, listener):
        self.listeners.append(listener)

    def fire_rebuild(self):
        for listener in self.listeners:
            listener()

    def run(self, specs, retries=1):
        self.batches.append(list(specs))
        if self.on_batch is not None:
            self.on_batch(self, specs)
        if self.gate is not None:
            self.gate.wait()
        for spec in specs:
            yield spec, self.outcome_fn(spec)

    def abort(self):
        self.aborted = True
        if self.gate is not None:
            self.gate.set()

    def close(self):
        self.closed = True

    def stats(self):
        return {"stub": True}


def run_service(test_coro, config=None, backend=None, store=None):
    """Run one async test body against a started stub-backed service."""
    config = config or ServiceConfig(request_timeout_s=30.0)
    service = ReproService(
        config, backend=backend or StubBackend(), store=store
    )

    async def _main():
        await service.start()
        try:
            return await test_coro(service)
        finally:
            if not service.draining:
                await service.drain()

    return asyncio.run(_main())


def body_of(response) -> dict:
    return json.loads(response.body.decode("utf-8"))


# -- coalescing ----------------------------------------------------------------------


def test_concurrent_identical_specs_coalesce_to_one_simulation():
    gate = threading.Event()
    backend = StubBackend(gate=gate)
    spec = quick_spec()
    reference = reference_body(spec)

    async def scenario(service):
        waiters = [
            asyncio.ensure_future(service.serve_spec(spec, 30.0))
            for _ in range(32)
        ]
        # Let every request reach the single-flight table before the
        # backend is allowed to produce the one result.
        while service.stats.coalesce_hits < 31:
            await asyncio.sleep(0.005)
        assert len(service.entries) == 1
        gate.set()
        return await asyncio.gather(*waiters)

    responses = run_service(scenario, backend=backend)
    assert [r.status for r in responses] == [200] * 32
    bodies = {r.body for r in responses}
    assert bodies == {reference}
    assert len(backend.batches) == 1 and len(backend.batches[0]) == 1


def test_coalesced_leader_failure_reaches_every_follower():
    gate = threading.Event()

    def fail(spec):
        return failure_from(
            spec, WorkerCrashError("the leader's point", resubmits=2),
            attempts=2,
        )

    backend = StubBackend(outcome_fn=fail, gate=gate)
    spec = quick_spec()

    async def scenario(service):
        waiters = [
            asyncio.ensure_future(service.serve_spec(spec, 30.0))
            for _ in range(5)
        ]
        while service.stats.coalesce_hits < 4:
            await asyncio.sleep(0.005)
        gate.set()
        return await asyncio.gather(*waiters)

    responses = run_service(scenario, backend=backend)
    # ReproError is transient -> 503, and every follower gets the same
    # structured body as the leader (no hangs, no generic 500s).
    assert {r.status for r in responses} == {503}
    assert len({r.body for r in responses}) == 1
    error = body_of(responses[0])["error"]
    assert error["error"] == "WorkerCrashError"
    assert error["attempts"] == 2
    assert error["transient"] is True


def test_permanent_point_failure_maps_to_422():
    def fail(spec):
        failure = failure_from(spec, ReproError("x"), attempts=1)
        return PointFailure(**dict(failure.to_dict(), error="ConfigError"))

    async def scenario(service):
        return await service.serve_spec(quick_spec(), 30.0)

    response = run_service(scenario, backend=StubBackend(outcome_fn=fail))
    assert response.status == 422
    assert body_of(response)["error"]["transient"] is False


def test_identical_specs_arriving_during_pool_rebuild_still_coalesce():
    gate = threading.Event()
    backend = StubBackend(gate=gate)
    backend.on_batch = lambda b, specs: b.fire_rebuild()
    spec = quick_spec()

    async def scenario(service):
        first = asyncio.ensure_future(service.serve_spec(spec, 30.0))
        # The batch has started and fired a rebuild notification; a
        # second identical spec must join the existing entry, not
        # resubmit against the rebuilding pool.
        while not backend.batches:
            await asyncio.sleep(0.005)
        second = asyncio.ensure_future(service.serve_spec(spec, 30.0))
        while service.stats.coalesce_hits < 1:
            await asyncio.sleep(0.005)
        gate.set()
        return await asyncio.gather(first, second)

    responses = run_service(scenario, backend=backend)
    assert [r.status for r in responses] == [200, 200]
    assert responses[0].body == responses[1].body
    assert len(backend.batches) == 1
    # One rebuild is below the trip threshold; a completed point then
    # resets the consecutive count.


# -- warm paths ----------------------------------------------------------------------


def test_store_hit_is_served_without_touching_the_backend(tmp_path):
    spec = quick_spec()
    store = ResultStore(tmp_path)
    store.put(spec, simulate_spec(spec))

    def explode(_spec):  # pragma: no cover - the assertion is it never runs
        raise AssertionError("backend touched on a warm request")

    backend = StubBackend(outcome_fn=explode)

    async def scenario(service):
        first = await service.serve_spec(spec, 30.0)
        second = await service.serve_spec(spec, 30.0)
        return first, second

    first, second = run_service(
        scenario, backend=backend, store=store,
        config=ServiceConfig(cache_dir=str(tmp_path)),
    )
    assert first.status == second.status == 200
    assert first.body == second.body == reference_body(spec)
    assert first.headers["x-repro-source"] == "store"
    assert second.headers["x-repro-source"] == "memo"
    assert backend.batches == []


def test_cold_result_is_persisted_for_the_next_daemon(tmp_path):
    spec = quick_spec()
    store = ResultStore(tmp_path)

    async def scenario(service):
        return await service.serve_spec(spec, 30.0)

    response = run_service(
        scenario, store=store,
        config=ServiceConfig(cache_dir=str(tmp_path)),
    )
    assert response.status == 200
    # Drain flushed the write-behind put: a fresh store sees the entry.
    assert ResultStore(tmp_path).get(spec) is not None


class _RacingStore(ResultStore):
    """A store whose lookups straddle the leader's delivery.

    The first lookup misses at once, so its request leads the flight.
    Every later lookup blocks until the leader has delivered -- the
    write-behind put has started -- and then misses too, because that
    put is held until the test releases it.
    """

    def __init__(self, root):
        super().__init__(root)
        self._lock = threading.Lock()
        self.lookups = 0
        self.delivered = threading.Event()
        self.release_put = threading.Event()

    def get(self, spec):
        with self._lock:
            self.lookups += 1
            first = self.lookups == 1
        if not first:
            assert self.delivered.wait(30.0), "leader never delivered"
        return None

    def put(self, spec, result):
        self.delivered.set()
        assert self.release_put.wait(30.0), "put never released"
        super().put(spec, result)


def test_request_whose_store_lookup_straddles_delivery_is_not_resimulated(
        tmp_path):
    spec = quick_spec()
    store = _RacingStore(tmp_path)

    async def scenario(service):
        try:
            responses = await asyncio.gather(
                service.serve_spec(spec, 30.0),
                service.serve_spec(spec, 30.0),
            )
        finally:
            store.release_put.set()
        return responses, service.stats.simulated

    responses, simulated = run_service(
        scenario, store=store,
        config=ServiceConfig(cache_dir=str(tmp_path)),
    )
    reference = reference_body(spec)
    assert simulated == 1
    assert [r.status for r in responses] == [200, 200]
    assert [r.body for r in responses] == [reference, reference]
    assert sorted(r.headers["x-repro-source"] for r in responses) == [
        "memo", "simulated",
    ]
    assert store.lookups == 2
    # The follower found the leader's memo entry after its store miss.
    assert ResultStore(tmp_path).get(spec) is not None


# -- admission control ---------------------------------------------------------------


def test_full_queue_sheds_with_429_and_retry_after():
    gate = threading.Event()
    backend = StubBackend(gate=gate)
    config = ServiceConfig(max_queue=2, request_timeout_s=30.0)

    async def scenario(service):
        first = asyncio.ensure_future(
            service.serve_spec(quick_spec(1), 30.0)
        )
        second = asyncio.ensure_future(
            service.serve_spec(quick_spec(2), 30.0)
        )
        while service.stats.cold_leaders < 2:
            await asyncio.sleep(0.005)
        shed = await service.serve_spec(quick_spec(4), 30.0)
        gate.set()
        served = await asyncio.gather(first, second)
        return shed, served

    shed, served = run_service(scenario, config=config, backend=backend)
    assert shed.status == 429
    assert int(shed.headers["retry-after"]) >= 1
    assert body_of(shed)["error"]["error"] == "Shed"
    assert [r.status for r in served] == [200, 200]


def test_draining_service_sheds_cold_but_serves_warm():
    spec = quick_spec()

    async def scenario(service):
        warm_before = await service.serve_spec(spec, 30.0)
        service.draining = True  # admission check only; no real drain
        warm = await service.serve_spec(spec, 30.0)
        cold = await service.serve_spec(quick_spec(2), 30.0)
        service.draining = False
        return warm_before, warm, cold

    warm_before, warm, cold = run_service(scenario)
    assert warm_before.status == 200
    assert warm.status == 200 and warm.body == warm_before.body
    assert cold.status == 503
    assert "draining" in body_of(cold)["error"]["message"]


def test_request_deadline_expires_without_killing_the_shared_flight():
    gate = threading.Event()
    backend = StubBackend(gate=gate)
    spec = quick_spec()

    async def scenario(service):
        slow = asyncio.ensure_future(service.serve_spec(spec, 30.0))
        while not service.entries:
            await asyncio.sleep(0.005)
        # A second waiter with a tiny deadline times out...
        timed_out = await service.serve_spec(spec, 0.05)
        # ...but the shared future must survive its timeout.
        gate.set()
        settled = await slow
        return timed_out, settled

    timed_out, settled = run_service(scenario, backend=backend)
    assert timed_out.status == 504
    error = body_of(timed_out)["error"]
    assert error["error"] == "DeadlineExpiredError"
    assert error["transient"] is True
    assert settled.status == 200
    assert settled.body == reference_body(spec)


# -- circuit breaker -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_breaker_trips_after_consecutive_rebuilds_and_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(max_rebuilds=3, cooldown_s=5.0, clock=clock)
    for _ in range(2):
        breaker.record_rebuild()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_success()  # a completed point resets the count
    for _ in range(3):
        breaker.record_rebuild()
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 1

    allowed, probe, retry_after = breaker.allow_cold()
    assert not allowed and retry_after == pytest.approx(5.0)

    clock.now += 5.1
    allowed, probe, _ = breaker.allow_cold()
    assert allowed and probe  # half-open: the probe is admitted
    allowed, _, _ = breaker.allow_cold()
    assert not allowed  # exactly one probe at a time
    breaker.record_success(probe=True)
    assert breaker.state is BreakerState.CLOSED
    allowed, probe, _ = breaker.allow_cold()
    assert allowed and not probe


def test_breaker_probe_failure_reopens_for_another_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(max_rebuilds=1, cooldown_s=5.0, clock=clock)
    breaker.record_rebuild()
    assert breaker.state is BreakerState.OPEN
    clock.now += 5.1
    allowed, probe, _ = breaker.allow_cold()
    assert allowed and probe
    breaker.record_failure(probe=True)
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 2
    assert not breaker.allow_cold()[0]


def test_breaker_rebuild_during_half_open_probe_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(max_rebuilds=1, cooldown_s=5.0, clock=clock)
    breaker.record_rebuild()
    clock.now += 5.1
    assert breaker.allow_cold() == (True, True, 0.0)
    breaker.record_rebuild()  # the pool broke again mid-probe
    assert breaker.state is BreakerState.OPEN


def test_open_breaker_sheds_cold_work_but_warm_flows():
    clock = FakeClock()
    spec = quick_spec()

    async def scenario(service):
        service.breaker = CircuitBreaker(
            max_rebuilds=3, cooldown_s=5.0, clock=clock
        )
        warm_seed = await service.serve_spec(spec, 30.0)
        for _ in range(3):
            service.breaker.record_rebuild()
        cold = await service.serve_spec(quick_spec(2), 30.0)
        warm = await service.serve_spec(spec, 30.0)
        # After the cooldown one probe goes through and closes the
        # breaker on success.
        clock.now += 5.1
        probe = await service.serve_spec(quick_spec(2), 30.0)
        return warm_seed, cold, warm, probe, service

    warm_seed, cold, warm, probe, service = run_service(scenario)
    assert warm_seed.status == 200
    assert cold.status == 503
    assert "breaker" in body_of(cold)["error"]["message"]
    assert warm.status == 200 and warm.body == warm_seed.body
    assert probe.status == 200
    assert service.breaker.state is BreakerState.CLOSED
    assert service.stats.shed_breaker == 1


# -- parsing and HTTP-level behaviour ------------------------------------------------


def test_parse_spec_accepts_canonical_and_build_forms():
    spec = quick_spec()
    parsed = ReproService.parse_spec({"spec": spec.to_dict()})
    assert parsed.spec_digest() == spec.spec_digest()
    built = ReproService.parse_spec({
        "build": {"app": "fft", "machine": "ideal", "nprocs": 1,
                  "preset": "quick"},
    })
    assert built.spec_digest() == spec.spec_digest()


@pytest.mark.parametrize("payload", [
    [],
    {},
    {"build": {"app": "fft", "machine": "ideal", "nprocs": 1,
               "bogus": True}},
    {"build": {"app": "no-such-app", "machine": "ideal", "nprocs": 1}},
    {"spec": {"app": "fft"}},
])
def test_parse_spec_rejects_malformed_payloads(payload):
    from repro.service.http import BadRequest

    with pytest.raises(BadRequest):
        ReproService.parse_spec(payload)


# -- end-to-end over real sockets ----------------------------------------------------


@pytest.fixture
def daemon(tmp_path):
    handle = serve_in_thread(ServiceConfig(
        port=0, jobs=2, cache_dir=str(tmp_path / "store"),
        request_timeout_s=120.0,
    ))
    try:
        yield handle
    finally:
        if handle.exit_code is None:
            handle.shutdown()


BUILD = {"app": "fft", "machine": "target", "nprocs": 4, "preset": "quick"}


def test_daemon_cold_then_warm_bytes_and_clean_drain(daemon):
    spec = RunSpec.build(**BUILD)
    reference = reference_body(spec)

    status, cold, headers = daemon.request("POST", "/run", {"build": BUILD})
    assert status == 200
    assert headers["x-repro-source"] == "simulated"
    assert cold == reference

    status, warm, headers = daemon.request("POST", "/run", {"build": BUILD})
    assert status == 200
    assert headers["x-repro-source"] == "memo"
    assert warm == reference

    status, stats = daemon.get("/stats")
    assert status == 200
    assert stats["simulated"] == 1
    assert stats["warm_hits"] == 1
    assert stats["by_status"]["200"] >= 2

    assert daemon.shutdown() == 0


def test_daemon_coalesces_32_concurrent_identical_cold_requests(daemon):
    spec = RunSpec.build(**BUILD)
    reference = reference_body(spec)

    def one_request(_i):
        conn = http.client.HTTPConnection(
            daemon.daemon.config.host, daemon.port, timeout=120
        )
        try:
            status, body, _headers = daemon.request(
                "POST", "/run", {"build": BUILD}, conn=conn
            )
        finally:
            conn.close()
        return status, body

    with ThreadPoolExecutor(max_workers=32) as pool:
        outcomes = list(pool.map(one_request, range(32)))

    assert {status for status, _ in outcomes} == {200}
    assert {body for _, body in outcomes} == {reference}
    # The headline proof: 32 identical requests, exactly one simulation.
    assert daemon.service.stats.simulated == 1
    stats = daemon.service.stats
    assert stats.coalesce_hits + stats.warm_hits + stats.cold_leaders == 32


def test_daemon_batch_endpoint_deduplicates_against_single_flight(daemon):
    runs = [{"build": BUILD} for _ in range(8)]
    status, payload = daemon.post("/batch", {"runs": runs})
    assert status == 200
    results = payload["results"]
    assert len(results) == 8
    assert {r["status"] for r in results} == {200}
    bodies = {canonical_json(r["body"]) for r in results}
    assert len(bodies) == 1
    assert daemon.service.stats.simulated == 1


def test_daemon_health_endpoints(daemon):
    assert daemon.get("/healthz") == (200, {"status": "ok"})
    status, ready = daemon.get("/readyz")
    assert status == 200
    assert ready["ready"] is True
    assert ready["breaker"]["state"] == "closed"
    assert ready["store"]["configured"] is True
    assert ready["store"]["writable"] is True


def test_daemon_protocol_errors(daemon):
    status, _, _ = daemon.request("GET", "/no-such-route")
    assert status == 404
    status, _, _ = daemon.request("GET", "/run")
    assert status == 405
    status, body, _ = daemon.request("POST", "/run", {"nope": 1})
    assert status == 400
    assert json.loads(body)["error"]["error"] == "BadRequest"
    conn = daemon.connection()
    conn.request("POST", "/run", body=b"{not json",
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    assert response.status == 400
    response.read()
    # A body-level error leaves the (well-framed) connection usable.
    assert response.getheader("connection") == "keep-alive"
    assert daemon.get("/healthz")[0] == 200


def test_daemon_closes_connection_on_malformed_framing(daemon):
    import socket

    with socket.create_connection(
        (daemon.daemon.config.host, daemon.port), timeout=10
    ) as sock:
        sock.sendall(b"NOT A REQUEST LINE\r\n\r\n")
        data = sock.recv(65536)
        # A framing-level error gets a 400 and the connection is closed.
        assert data.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in data.lower()
        sock.settimeout(5)
        assert sock.recv(1) == b""


def test_daemon_drain_resolves_inflight_and_exits_cleanly(tmp_path):
    gate = threading.Event()
    config = ServiceConfig(port=0, drain_s=0.5, request_timeout_s=30.0)
    service = ReproService(config, backend=StubBackend(gate=gate))
    handle = serve_in_thread(config, service=service)
    try:
        outcomes = []

        def slow_request():
            conn = http.client.HTTPConnection(
                config.host, handle.port, timeout=30
            )
            try:
                status, body, _ = handle.request(
                    "POST", "/run",
                    {"build": dict(BUILD, machine="ideal", nprocs=1)},
                    conn=conn,
                )
            finally:
                conn.close()
            outcomes.append((status, body))

        thread = threading.Thread(target=slow_request)
        thread.start()
        while not service.entries:
            time.sleep(0.01)
        # SIGTERM with a point still gated: the drain deadline expires,
        # the waiter gets a structured drain error, and the daemon
        # still exits 0 (clean drain, not a hang or a 130).
        exit_code = handle.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert exit_code == 0
        assert len(outcomes) == 1
        status, body = outcomes[0]
        assert status == 503
        assert b"drained" in body
    finally:
        gate.set()
        if handle.exit_code is None:
            handle.shutdown()
