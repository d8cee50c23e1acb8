"""Request lifecycle of the simulation service.

One :class:`ReproService` owns the whole serving state machine.  A
``POST /run`` walks these stations, each designed so the failure of one
request (or one worker, or the whole pool) cannot corrupt another:

1. **parse** -- canonical spec (``{"spec": {...}}``) or build shorthand
   (``{"build": {...}}``); malformed input is a 400/422, never an
   exception escaping the handler;
2. **warm path** -- the in-memory body memo, then the checksummed
   :class:`~repro.exec.store.ResultStore`; a hit is served without
   touching the backend (correct by the determinism contract);
3. **admission** -- draining sheds (503), a full queue sheds (429 +
   ``Retry-After``), an open circuit breaker sheds cold work (503)
   while warm requests keep flowing;
4. **coalescing** -- concurrent identical cold specs share one
   *single-flight* entry keyed by ``spec_digest()``: one leader submits
   to the backend, followers await the same future, and everyone gets
   byte-identical bodies (or the same structured error if the leader's
   point fails);
5. **execution** -- the dispatcher thread feeds the supervised pool;
   worker crashes, deadlines, and rebuilds are the backend's problem
   and surface here only as outcomes or breaker state;
6. **response** -- a result is canonical JSON (bit-identical to any
   other serving of the same spec, ``wall_seconds`` normalized to 0 --
   it is host noise, not simulation output); a failure maps through
   the transient/permanent taxonomy to 5xx/4xx with a structured body.

Every response body is produced by exactly one function per shape, so
byte-level equality across warm/cold/coalesced paths is structural,
not coincidental.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from .. import errors
from ..apps import APPLICATIONS
from ..config import MACHINES
from ..core.accounting import RunResult
from ..errors import ConfigError, PermanentError, TransientError
from ..exec.backend import PointFailure, PointOutcome
from ..exec.policy import RetryPolicy
from ..exec.store import ResultStore
from ..exec.supervisor import SupervisedPoolBackend
from ..runspec import RunSpec, canonical_json
from .breaker import BreakerState, CircuitBreaker
from .dispatch import PoolDispatcher
from .http import BadRequest, Request, Response, read_request
from .stats import ServiceStats

#: Resolution of an abandoned coalescing entry during forced drain.
_DRAINED = object()

#: Keys :meth:`RunSpec.build` accepts from the ``build`` shorthand.
_BUILD_KEYS = frozenset({
    "app", "machine", "nprocs", "topology", "preset", "params", "seed",
    "check", "digest", "protocol", "barrier", "adaptive_g",
    "g_per_event_type", "batch_local", "max_events",
})


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can be told from the command line."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: Pool workers (the daemon always runs a supervised pool; values
    #: below 2 are clamped up -- a serving daemon needs headroom).
    jobs: int = 2
    cache_dir: Optional[str] = None
    #: Cold specs admitted but not yet resolved before 429s start.
    max_queue: int = 64
    #: Per-point wall-clock deadline (PR 6 machinery, in-worker SIGALRM
    #: plus host-side reclamation).
    deadline_s: Optional[float] = None
    #: Ceiling on how long any request may wait for its outcome.
    request_timeout_s: float = 60.0
    #: Transient-failure re-attempts per point.
    max_retries: int = 1
    #: Consecutive pool rebuilds before the breaker trips.
    breaker_rebuilds: int = 3
    #: Seconds the breaker stays open before half-opening a probe.
    breaker_cooldown_s: float = 5.0
    #: Seconds graceful drain waits for in-flight work.
    drain_s: float = 10.0
    #: Result-store size budget enforced by opportunistic gc (None:
    #: unbounded).
    max_store_bytes: Optional[int] = None
    #: Bodies kept in the in-memory memo (LRU).
    memo_entries: int = 4096
    #: Jitter seed of the retry policy (deterministic backoff).
    seed: int = 0


@dataclass
class _Pending:
    """One single-flight entry: a cold spec someone is simulating."""

    future: "asyncio.Future"
    #: This entry is the breaker's half-open probe.
    probe: bool = False
    #: Requests currently awaiting the future (diagnostics).
    waiters: int = 0
    spec: Optional[RunSpec] = None


# -- response bodies ----------------------------------------------------------------
# One constructor per shape: byte-identical responses are structural.


def result_payload(digest: str, result: RunResult) -> Dict:
    """The servable form of a result.

    ``wall_seconds`` is host-side measurement noise (the one field the
    determinism contract excludes), so it is normalized to 0.0: every
    serving of a spec -- warm, cold, coalesced, replayed after a crash
    -- is byte-identical.
    """
    data = result.to_dict()
    data["wall_seconds"] = 0.0
    return {"spec_digest": digest, "result": data}


def classify_failure(failure: PointFailure) -> Tuple[int, bool]:
    """(HTTP status, transient?) of a structured point failure."""
    exc_type = getattr(errors, failure.error, None)
    if not (isinstance(exc_type, type) and issubclass(exc_type, Exception)):
        return 500, False
    if failure.error == "DeadlineExpiredError":
        return 504, True
    if issubclass(exc_type, TransientError):
        return 503, True
    if issubclass(exc_type, PermanentError):
        return 422, False
    return 500, False


def failure_response(digest: str, failure: PointFailure) -> Response:
    status, transient = classify_failure(failure)
    headers = {"retry-after": "1"} if status == 503 else {}
    return Response.json(status, {
        "spec_digest": digest,
        "error": {
            "error": failure.error,
            "message": failure.message,
            "attempts": failure.attempts,
            "transient": transient,
        },
    }, headers=headers)


def shed_response(status: int, reason: str, retry_after_s: float) -> Response:
    retry_after = max(1, int(retry_after_s + 0.999))
    return Response.json(status, {
        "error": {
            "error": "Shed",
            "message": reason,
            "transient": True,
        },
    }, headers={"retry-after": str(retry_after)})


class ReproService:
    """The daemon's state: memo, coalescing table, breaker, stats."""

    def __init__(
        self,
        config: ServiceConfig,
        backend: Optional[SupervisedPoolBackend] = None,
        store: Optional[ResultStore] = None,
    ):
        self.config = config
        self.stats = ServiceStats()
        self.breaker = CircuitBreaker(
            max_rebuilds=config.breaker_rebuilds,
            cooldown_s=config.breaker_cooldown_s,
        )
        self.store = store if store is not None else (
            ResultStore(config.cache_dir)
            if config.cache_dir is not None else None
        )
        self.backend = backend if backend is not None else (
            SupervisedPoolBackend(
                jobs=max(2, config.jobs),
                policy=RetryPolicy(
                    max_retries=config.max_retries,
                    base_delay_s=0.05,
                    seed=config.seed,
                ),
                deadline_s=config.deadline_s,
                # The service-level breaker owns crash-loop handling;
                # in-process serial degradation is the last line, so
                # give the pool more rope than the breaker.
                max_rebuilds=max(config.breaker_rebuilds * 4, 12),
            )
        )
        self.backend.add_rebuild_listener(self._on_rebuild)
        self.dispatcher = PoolDispatcher(
            self.backend, self._deliver_threadsafe,
            retries=config.max_retries,
        )
        #: Single-flight table: digest -> pending entry.
        self.entries: Dict[str, _Pending] = {}
        #: LRU memo of servable 200 bodies, digest -> bytes.
        self._memo: "OrderedDict[str, bytes]" = OrderedDict()
        self.draining = False
        self.drained = asyncio.Event()
        self.started_at = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight_http = 0
        self._store_tasks: Set["asyncio.Task"] = set()
        self._connections: Set[asyncio.StreamWriter] = set()
        self._drain_task: Optional["asyncio.Task"] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        # Recreated inside the running loop: a 3.9 Event binds its loop
        # at construction, and the service object may be built earlier.
        self.drained = asyncio.Event()
        self.dispatcher.start()

    # -- backend callbacks (dispatcher thread) -------------------------------

    def _on_rebuild(self) -> None:
        self.breaker.record_rebuild()

    def _deliver_threadsafe(self, spec: RunSpec, outcome: PointOutcome) -> None:
        if self._loop is None or self._loop.is_closed():
            return
        try:
            self._loop.call_soon_threadsafe(self._deliver, spec, outcome)
        except RuntimeError:  # pragma: no cover - loop closed mid-call
            pass

    # -- outcome delivery (event loop) ---------------------------------------

    def _deliver(self, spec: RunSpec, outcome: PointOutcome) -> None:
        digest = spec.spec_digest()
        entry = self.entries.pop(digest, None)
        probe = entry.probe if entry is not None else False
        if isinstance(outcome, PointFailure):
            self.stats.failed_points += 1
            self.breaker.record_failure(probe=probe)
        else:
            self.stats.simulated += 1
            self.stats.note_engine(outcome)
            self.breaker.record_success(probe=probe)
            self._memo_put(digest, outcome)
            self._persist(spec, outcome)
        if entry is not None and not entry.future.done():
            entry.future.set_result(outcome)

    def _persist(self, spec: RunSpec, result: RunResult) -> None:
        """Write-behind store put (+ opportunistic gc), tracked so
        drain can flush it."""
        if self.store is None or self._loop is None:
            return
        task = self._loop.create_task(self._persist_async(spec, result))
        self._store_tasks.add(task)
        task.add_done_callback(self._store_tasks.discard)

    async def _persist_async(self, spec: RunSpec, result: RunResult) -> None:
        try:
            await asyncio.to_thread(self.store.put, spec, result)
        except OSError:  # pragma: no cover - disk trouble: keep serving
            return
        budget = self.config.max_store_bytes
        if budget is not None and self.store.stores % 32 == 0:
            await asyncio.to_thread(self.store.gc, budget)

    # -- memo ----------------------------------------------------------------

    def _memo_put(self, digest: str, result: RunResult) -> None:
        body = canonical_json(result_payload(digest, result)).encode("utf-8")
        self._memo[digest] = body
        self._memo.move_to_end(digest)
        while len(self._memo) > self.config.memo_entries:
            self._memo.popitem(last=False)

    def _memo_get(self, digest: str) -> Optional[bytes]:
        body = self._memo.get(digest)
        if body is not None:
            self._memo.move_to_end(digest)
        return body

    # -- spec parsing --------------------------------------------------------

    @staticmethod
    def _validated(spec: RunSpec) -> RunSpec:
        """Reject specs that would only fail inside a worker.

        ``RunSpec.build`` defers app/machine validation to simulation
        time; a service must refuse them at admission so a typo is a
        422, not a burned pool slot and a 500.
        """
        if spec.app not in APPLICATIONS:
            raise BadRequest(
                422,
                f"unknown app {spec.app!r}; known: {sorted(APPLICATIONS)}",
            )
        if spec.machine not in MACHINES:
            raise BadRequest(
                422,
                f"unknown machine {spec.machine!r}; known: {list(MACHINES)}",
            )
        return spec

    @classmethod
    def parse_spec(cls, payload) -> RunSpec:
        """A RunSpec from a request payload (canonical or shorthand)."""
        if not isinstance(payload, dict):
            raise BadRequest(400, "payload must be a JSON object")
        if "spec" in payload:
            try:
                return cls._validated(RunSpec.from_dict(payload["spec"]))
            except ConfigError as exc:
                raise BadRequest(422, f"invalid spec: {exc}") from exc
        if "build" in payload:
            build = payload["build"]
            if not isinstance(build, dict):
                raise BadRequest(400, "'build' must be a JSON object")
            unknown = set(build) - _BUILD_KEYS
            if unknown:
                raise BadRequest(
                    422, f"unknown build field(s): {sorted(unknown)}"
                )
            try:
                return cls._validated(RunSpec.build(**build))
            except (ConfigError, TypeError, KeyError) as exc:
                raise BadRequest(422, f"invalid build: {exc}") from exc
        raise BadRequest(400, "payload needs a 'spec' or 'build' key")

    def _request_timeout(self, payload) -> float:
        timeout = payload.get("timeout_s") if isinstance(payload, dict) else None
        if timeout is None:
            return self.config.request_timeout_s
        try:
            timeout = float(timeout)
        except (TypeError, ValueError) as exc:
            raise BadRequest(400, f"bad timeout_s {timeout!r}") from exc
        if timeout <= 0:
            raise BadRequest(400, "timeout_s must be positive")
        return min(timeout, self.config.request_timeout_s)

    # -- the cold/warm state machine -----------------------------------------

    async def serve_spec(self, spec: RunSpec, timeout_s: float) -> Response:
        start = time.monotonic()
        digest = spec.spec_digest()

        body = self._memo_get(digest)
        if body is not None:
            self.stats.warm_memo += 1
            self.stats.warm_latency.record(time.monotonic() - start)
            return Response(200, body, {"x-repro-source": "memo"})

        if self.store is not None:
            result = await asyncio.to_thread(self.store.get, spec)
            if result is not None:
                self.stats.warm_store += 1
                self._memo_put(digest, result)
                self.stats.warm_latency.record(time.monotonic() - start)
                return Response(
                    200, self._memo_get(digest), {"x-repro-source": "store"}
                )
            # A leader may have delivered while the lookup ran in its
            # thread: the memo holds the body, but the write-behind put
            # has not reached the store yet, and the flight has left
            # ``entries`` -- without this check the request would lead
            # a second simulation of the same point.
            body = self._memo_get(digest)
            if body is not None:
                self.stats.warm_memo += 1
                self.stats.warm_latency.record(time.monotonic() - start)
                return Response(200, body, {"x-repro-source": "memo"})

        # Cold: the spec needs a simulation.
        if self.draining:
            self.stats.shed_drain += 1
            return shed_response(503, "service is draining", 1.0)
        entry = self.entries.get(digest)
        coalesced = entry is not None
        if entry is None:
            if len(self.entries) >= self.config.max_queue:
                self.stats.shed_queue += 1
                return shed_response(
                    429,
                    f"admission queue is full "
                    f"({len(self.entries)} >= {self.config.max_queue})",
                    1.0,
                )
            allowed, probe, retry_after = self.breaker.allow_cold()
            if not allowed:
                self.stats.shed_breaker += 1
                return shed_response(
                    503,
                    "circuit breaker is open: serving warm cache only",
                    retry_after,
                )
            entry = _Pending(
                future=self._loop.create_future(), probe=probe, spec=spec
            )
            self.entries[digest] = entry
            self.stats.cold_leaders += 1
            self.dispatcher.submit(spec)
        else:
            self.stats.coalesce_hits += 1

        entry.waiters += 1
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(entry.future), timeout=timeout_s
            )
        except asyncio.TimeoutError:
            self.stats.deadline_expired += 1
            return Response.json(504, {
                "spec_digest": digest,
                "error": {
                    "error": "DeadlineExpiredError",
                    "message": (
                        f"request deadline of {timeout_s:g} s expired while "
                        f"the point was "
                        f"{'coalesced behind' if coalesced else 'queued for'}"
                        f" simulation"
                    ),
                    "transient": True,
                },
            })
        finally:
            entry.waiters -= 1

        self.stats.cold_latency.record(time.monotonic() - start)
        if outcome is _DRAINED:
            self.stats.shed_drain += 1
            return shed_response(
                503, "service drained before the point completed", 1.0
            )
        if isinstance(outcome, PointFailure):
            return failure_response(digest, outcome)
        body = self._memo_get(digest)
        if body is None:  # pragma: no cover - memo evicted same-tick
            body = canonical_json(result_payload(digest, outcome)).encode()
        return Response(200, body, {
            "x-repro-source": "coalesced" if coalesced else "simulated",
        })

    # -- endpoints -----------------------------------------------------------

    async def _handle_run(self, request: Request) -> Response:
        payload = request.json()
        spec = self.parse_spec(payload)
        timeout_s = self._request_timeout(payload)
        return await self.serve_spec(spec, timeout_s)

    async def _handle_batch(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, dict) or not isinstance(
            payload.get("runs"), list
        ):
            raise BadRequest(400, "payload needs a 'runs' list")
        runs = payload["runs"]
        if len(runs) > 1024:
            raise BadRequest(413, f"batch of {len(runs)} exceeds 1024 runs")
        specs = [self.parse_spec(item) for item in runs]
        timeout_s = self._request_timeout(payload)
        responses = await asyncio.gather(
            *(self.serve_spec(spec, timeout_s) for spec in specs)
        )
        return Response.json(200, {
            "results": [
                {"status": r.status, "body": json.loads(r.body.decode())}
                for r in responses
            ],
        })

    def _handle_healthz(self) -> Response:
        return Response.json(200, {"status": "ok"})

    def _store_health(self) -> Dict:
        if self.store is None:
            return {"configured": False}
        writable = True
        try:
            self.store.root.mkdir(parents=True, exist_ok=True)
            writable = os.access(self.store.root, os.W_OK)
        except OSError:
            writable = False
        size = self.store.size_bytes()
        budget = self.config.max_store_bytes
        return {
            "configured": True,
            "writable": writable,
            "bytes": size,
            "max_bytes": budget,
            "over_budget": bool(budget is not None and size > budget),
        }

    def _handle_readyz(self) -> Response:
        store_health = self._store_health()
        backend_alive = self.dispatcher.alive()
        breaker = self.breaker.snapshot()
        ready = (
            not self.draining
            and backend_alive
            and breaker["state"] != BreakerState.OPEN.value
            and store_health.get("writable", True)
        )
        return Response.json(200 if ready else 503, {
            "ready": ready,
            "draining": self.draining,
            "backend_alive": backend_alive,
            "breaker": breaker,
            "store": store_health,
            "queue_depth": len(self.entries),
            "max_queue": self.config.max_queue,
        })

    def _handle_stats(self) -> Response:
        snapshot = self.stats.snapshot()
        snapshot.update({
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "queue_depth": len(self.entries),
            "inflight_http": self._inflight_http,
            "draining": self.draining,
            "breaker": self.breaker.snapshot(),
            "backend": self.backend.stats(),
            "store": (
                dict(self.store.stats(), bytes=self.store.size_bytes())
                if self.store is not None else None
            ),
        })
        return Response.json(200, snapshot)

    # -- routing and connection handling -------------------------------------

    async def dispatch(self, request: Request) -> Response:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return self._handle_healthz()
        if route == ("GET", "/readyz"):
            return self._handle_readyz()
        if route == ("GET", "/stats"):
            return self._handle_stats()
        if route == ("POST", "/run"):
            return await self._handle_run(request)
        if route == ("POST", "/batch"):
            return await self._handle_batch(request)
        if request.path in ("/run", "/batch", "/healthz", "/readyz", "/stats"):
            return Response.json(405, {
                "error": {"error": "MethodNotAllowed",
                          "message": f"{request.method} {request.path}"},
            })
        return Response.json(404, {
            "error": {"error": "NotFound", "message": request.path},
        })

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequest as exc:  # noqa: PERF203 -- request loop
                    self.stats.bad_requests += 1
                    response = Response.json(
                        exc.status,
                        {"error": {"error": "BadRequest",
                                   "message": exc.detail}},
                        close=True,
                    )
                    self.stats.record_response(response.status)
                    writer.write(response.encode())
                    await writer.drain()
                    return
                except (asyncio.TimeoutError,  # noqa: PERF203
                        asyncio.IncompleteReadError, ConnectionError):
                    return
                if request is None:
                    return
                self._inflight_http += 1
                try:
                    try:
                        response = await self.dispatch(request)
                    except BadRequest as exc:
                        self.stats.bad_requests += 1
                        response = Response.json(exc.status, {
                            "error": {"error": "BadRequest",
                                      "message": exc.detail},
                        })
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:  # noqa: BLE001 - boundary
                        response = Response.json(500, {
                            "error": {"error": type(exc).__name__,
                                      "message": str(exc)},
                        })
                finally:
                    self._inflight_http -= 1
                if request.wants_close or self.draining:
                    response.close = True
                self.stats.record_response(response.status)
                try:
                    writer.write(response.encode())
                    await writer.drain()
                except ConnectionError:  # noqa: PERF203 -- peer went away
                    return
                if response.close:
                    return
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
            except Exception:  # pragma: no cover - already dead
                pass

    # -- graceful drain ------------------------------------------------------

    def begin_drain(self) -> "asyncio.Task":
        """Idempotently start the drain sequence (signal-handler safe)."""
        if self._drain_task is None:
            self._drain_task = self._loop.create_task(self.drain())
        return self._drain_task

    async def drain(self) -> None:
        """Stop taking cold work, settle in-flight, flush, shut down.

        The sequence honours ``drain_s`` as a hard deadline: in-flight
        points get that long to finish; whatever remains is resolved
        with a structured drain error (no waiter ever hangs) and the
        backend is aborted.  Store write-behind tasks are always
        flushed -- results that were computed are never thrown away.
        """
        if self.draining:
            return
        self.draining = True
        deadline = self._loop.time() + self.config.drain_s
        while (
            (self.entries or self._inflight_http)
            and self._loop.time() < deadline
        ):
            await asyncio.sleep(0.02)
        abandoned = bool(self.entries)
        if abandoned:
            for entry in list(self.entries.values()):
                if not entry.future.done():
                    entry.future.set_result(_DRAINED)
            self.entries.clear()
            # Give abandoned waiters one tick to observe the result.
            await asyncio.sleep(0.05)
            await asyncio.to_thread(self.dispatcher.force_stop)
        else:
            await asyncio.to_thread(self.dispatcher.stop)
        if self._store_tasks:
            await asyncio.gather(
                *list(self._store_tasks), return_exceptions=True
            )
        await asyncio.to_thread(self.backend.close)
        for writer in list(self._connections):
            try:
                writer.close()
            except Exception:  # noqa: PERF203  # pragma: no cover
                pass
        self.drained.set()
