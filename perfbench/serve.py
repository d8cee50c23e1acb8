"""The ``serve-mixed`` workload: ``repro serve`` under an open loop.

One process sends ``POST /run`` over at most ``nproc`` keep-alive
connections.  Most requests are warm -- quick fft across
{target, logp, clogp} x {1, 4, 16}, loaded before timing starts -- and
every 50th is cold: quick fft/clogp/p=4 with a fresh seed derived from
the workload seed, so the daemon must simulate it in its pool and write
it to the store.  Cold requests are spaced by index, not by coin flip,
so every run of a seed sends the same number.

The open loop sends each request when it is due, whether or not the
previous ones returned, and times it from when it was due: a stall
shows in the latency of everything queued behind it.  Offered rates
climb a fixed ladder; 200 rps is the reference rate.  Closed-loop
passes of warm requests, sent back to back with an echo yardstick's
round trips interleaved and scaled by it, give the host cost of
serving and the latency of one warm request.  Open-loop latency at a
light load is printed but not gated: on a shared host it rides on how
fast an idle CPU wakes, which swings from run to run.

Every 200 body is compared byte for byte with an in-process reference
computed before timing (``bench_service.reference_bodies``); a
mismatch, exception, non-200, refusal or timeout is a failed request,
and a failed request misses the latency limit.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from common import (BENCH_DIR, ROOT, WORK, at_reference_speed, calibrate,
                    median, percentile, samples_beyond, tail_percentile,
                    task_cpu_s)

#: Every COLD_EVERY-th request (by index) is cold.
COLD_EVERY = 50
REFERENCE_RATE = 200.0
#: Offered rates, ascending; the ladder stops at the first rate missed.
LADDER = (200.0, 400.0, 600.0, 800.0)
#: Shares of ``--seconds`` spent at the reference rate and at each other
#: ladder rate.
REFERENCE_SHARE = 0.3
STEP_SHARE = 0.05
#: Warm requests must stay at or under this at a sustained rate.
LATENCY_LIMIT_MS = 20.0
#: Closed-loop passes per run, and the warm requests in each, sent over
#: one connection: the host cost of the serving path alone (cold
#: requests would add pool simulations on other cores, which the open
#: loop already times).
PASSES = 8
PASS_REQUESTS = 1000
#: A closed-loop pass sends one echo round trip after every
#: YARDSTICK_EVERY-th request.
YARDSTICK_EVERY = 3
#: Wall and server CPU seconds of one echo round trip at the reference
#: serving speed.
YARDSTICK_TRIP_S = 0.08 / 300
YARDSTICK_TRIP_CPU_S = 0.04 / 300
#: Daemons launched (and timed to ready) per run.
SETUP_LAUNCHES = 3
#: A step is abandoned once the sender runs this late.
ABANDON_LATE_S = 1.0
JOBS = 2
REQUEST_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Request:
    index: int
    due_s: float
    build: Dict
    cold: bool


def warm_builds() -> List[Dict]:
    from bench_service import spec_universe

    return spec_universe()


def cold_build(seed: int, index: int) -> Dict:
    """The cold spec of request ``index``: a seed no other request uses."""
    return {"app": "fft", "machine": "clogp", "nprocs": 4,
            "preset": "quick",
            "seed": (seed * 100_003 + index + 1) % (2 ** 31 - 1)}


def schedule(seed: int, rate: float, duration_s: float, first_index: int,
             warm: Sequence[Dict], with_cold: bool = True) -> List[Request]:
    """Requests of one step: evenly spaced at ``rate``, deterministic.

    ``first_index`` numbers requests across the whole run, so cold
    seeds never repeat; a rate of 0 means ``duration_s`` requests back
    to back (closed loop).
    """
    count = int(round(rate * duration_s)) if rate else int(duration_s)
    rng = random.Random(f"perfbench-serve:{seed}:{first_index}")
    requests = []
    for offset in range(count):
        index = first_index + offset
        cold = with_cold and index % COLD_EVERY == COLD_EVERY - 1
        build = cold_build(seed, index) if cold else rng.choice(warm)
        requests.append(Request(index, offset / rate if rate else 0.0,
                                build, cold))
    return requests


@dataclass
class Outcome:
    request: Request
    late_s: float
    latency_s: float
    ok: bool
    why: str = ""


class LoadGenerator:
    """Sends scheduled requests over ``connections`` keep-alive clients."""

    def __init__(self, host: str, port: int, connections: int,
                 references: Dict[str, bytes]):
        self.host = host
        self.port = port
        self.connections = connections
        self.references = references
        self._digests: Dict[str, str] = {}

    def digest(self, build: Dict) -> str:
        from repro import RunSpec

        key = json.dumps(build, sort_keys=True)
        if key not in self._digests:
            self._digests[key] = RunSpec.build(**build).spec_digest()
        return self._digests[key]

    def send(self, client, request: Request):
        """POST one request and check the answer: (client, ok, why).

        A client whose connection failed is replaced by a fresh one.
        """
        from bench_service import Client

        try:
            status, body, _source = client.post(
                "/run", {"build": request.build})
        except Exception as error:  # noqa: BLE001 -- counted
            client.close()
            client = Client(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
            status, body = None, repr(error).encode()
        ok = status == 200 and body == self.references[
            self.digest(request.build)]
        why = "" if ok else (
            f"request {request.index}: status {status}, "
            f"{'body differs from reference' if status == 200 else body[:120]!r}")
        return client, ok, why

    def interleaved(self, requests: Sequence[Request], yardstick):
        """A closed-loop pass over one connection, the yardstick interleaved.

        One echo round trip follows every YARDSTICK_EVERY-th request, so
        the two share the host speed of the same moments.  Returns the
        outcomes and the echo round trips' seconds.
        """
        from bench_service import Client

        for request in requests:
            self.digest(request.build)
        client = Client(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        outcomes, trips = [], []
        try:
            for count, request in enumerate(requests, 1):
                sent = time.perf_counter()
                client, ok, why = self.send(client, request)
                done = time.perf_counter()
                outcomes.append(Outcome(request, 0.0, done - sent, ok, why))
                if count % YARDSTICK_EVERY == 0:
                    trips.append(yardstick.trip())
        finally:
            client.close()
        return outcomes, trips

    def run(self, requests: Sequence[Request], open_loop: bool = True):
        """Send every request; returns (outcomes, abandoned, wall_s)."""
        from bench_service import Client

        for request in requests:
            self.digest(request.build)
        outcomes: List[Outcome] = []
        lock = threading.Lock()
        cursor = iter(requests)
        abandon = threading.Event()
        start = time.perf_counter() + 0.02

        def worker():
            client = Client(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
            local = []
            try:
                while not abandon.is_set():
                    with lock:
                        request = next(cursor, None)
                    if request is None:
                        break
                    due = start + request.due_s if open_loop else None
                    now = time.perf_counter()
                    if due is not None and now < due:
                        time.sleep(due - now)
                    sent = time.perf_counter()
                    if due is None:
                        due = sent
                    if sent - due > ABANDON_LATE_S:
                        abandon.set()
                        break
                    client, ok, why = self.send(client, request)
                    done = time.perf_counter()
                    local.append(Outcome(request, sent - due, done - due,
                                         ok, why))
            finally:
                client.close()
                with lock:
                    outcomes.extend(local)

        threads = [threading.Thread(target=worker)
                   for _ in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        outcomes.sort(key=lambda outcome: outcome.request.index)
        return outcomes, len(requests) - len(outcomes), wall


@dataclass
class Step:
    rate: float
    outcomes: List[Outcome]
    abandoned: int

    @property
    def warm(self) -> List[float]:
        """Warm latencies; a failed request counts as over the limit."""
        return [outcome.latency_s * 1000.0 if outcome.ok else float("inf")
                for outcome in self.outcomes if not outcome.request.cold]

    @property
    def cold(self) -> List[float]:
        return [outcome.latency_s * 1000.0 if outcome.ok else float("inf")
                for outcome in self.outcomes if outcome.request.cold]

    @property
    def backlog_grew(self) -> bool:
        """The sender fell further behind over the step, or gave up."""
        if self.abandoned:
            return True
        tenth = max(len(self.outcomes) // 10, 1)
        head = median([o.late_s for o in self.outcomes[:tenth]])
        tail = median([o.late_s for o in self.outcomes[-tenth:]])
        return (tail - head) * 1000.0 > LATENCY_LIMIT_MS

    @property
    def late_ms_max(self) -> float:
        """How late the sender ran behind the schedule, at worst."""
        return max(outcome.late_s for outcome in self.outcomes) * 1000.0

    @property
    def p99_ms(self) -> float:
        return percentile(self.warm, 99)

    @property
    def sustained(self) -> bool:
        return (not self.backlog_grew and bool(self.warm)
                and self.p99_ms <= LATENCY_LIMIT_MS)


# -- the daemon ----------------------------------------------------------------------


def proc_children(pid: int) -> List[int]:
    """Direct children of ``pid`` (the daemon's pool workers)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # noqa: PERF203 -- process raced away
            continue
        # Fields after the parenthesised command: state, ppid, ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def proc_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir: Path, log: Path,
                 profile_out: Optional[Path] = None):
        if profile_out is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(BENCH_DIR / "traced_daemon.py"),
                       str(profile_out), "serve"]
        command += ["--port", "0", "--jobs", str(JOBS),
                    "--cache-dir", str(cache_dir),
                    "--request-timeout-s", "60"]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self._log = open(log, "w")
        self._pump = None
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env, text=True,
                                     cwd=str(ROOT))
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"daemon failed to start: {line!r}; "
                               f"see {log}")
        host, port = line.split("listening on ", 1)[1].split()[0].split(":")
        self.host, self.port = host, int(port)
        self._pump = threading.Thread(target=self._drain_stdout, daemon=True)
        self._pump.start()

    def _drain_stdout(self) -> None:
        for line in self.proc.stdout:
            self._log.write(line)

    def pids(self) -> List[int]:
        return [self.proc.pid] + proc_children(self.proc.pid)

    def cpu_s(self) -> float:
        """CPU of the daemon and its live workers so far."""
        return sum(task_cpu_s(pid) for pid in self.pids())

    def peak_rss_mb(self) -> float:
        return sum(proc_hwm_mb(pid) for pid in self.pids())

    def stats(self) -> Dict:
        from bench_service import Client

        client = Client(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            status, payload = client.get_json("/stats")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return payload

    def drain(self, timeout: float = 30.0) -> int:
        """SIGTERM, wait for the graceful drain, return the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1
        self._close_log()
        return code

    def kill(self) -> None:
        """SIGKILL the daemon and its workers and reap the daemon."""
        for pid in self.pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:  # noqa: PERF203 -- already gone
                continue
        self.proc.wait()
        self._close_log()

    def _close_log(self) -> None:
        if self._pump is not None:
            self._pump.join(timeout=5)
        self._log.close()


class Yardstick:
    """``echo.py`` on the daemon's CPU, and one client: the serving speed now."""

    def __init__(self):
        from bench_service import Client

        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "echo.py")],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.close()
            raise RuntimeError(f"echo server failed to start: {line!r}")
        host, port = line.split("listening on ", 1)[1].split()[0].split(":")
        self.client = Client(host, int(port), timeout=REQUEST_TIMEOUT_S)

    def trip(self) -> float:
        """Wall seconds of one round trip."""
        start = time.perf_counter()
        status, _body, _source = self.client.post(
            "/run", {"build": {"app": "fft", "index": 0}})
        seconds = time.perf_counter() - start
        if status != 200:
            raise RuntimeError(f"echo server answered {status}")
        return seconds

    def cpu_s(self) -> float:
        """CPU seconds the echo server has run so far."""
        return task_cpu_s(self.proc.pid)

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


# -- the workload --------------------------------------------------------------------


class ServeRun:
    """One run: daemons, references, and the request schedule."""

    def __init__(self, seed: int, report, connections: int, worker_cpus):
        self.seed = seed
        self.worker_cpus = worker_cpus
        self.report = report
        self.connections = connections
        self.warm = warm_builds()
        self.next_index = 0
        self.references: Dict[str, bytes] = {}
        self.launches = 0
        self.workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def plan(self, rate: float, duration_s: float,
             with_cold: bool = True) -> List[Request]:
        requests = schedule(self.seed, rate, duration_s, self.next_index,
                            self.warm, with_cold)
        self.next_index += len(requests)
        return requests

    def prepare_references(self, steps: Sequence[Sequence[Request]]) -> None:
        """Serial in-process reference bodies, computed before timing."""
        from bench_service import reference_bodies

        builds = {json.dumps(b, sort_keys=True): b for b in self.warm}
        for requests in steps:
            for request in requests:
                builds[json.dumps(request.build, sort_keys=True)] = \
                    request.build
        self.references.update(reference_bodies(list(builds.values())))

    def launch(self, profile_out: Optional[Path] = None):
        """Start a daemon and load the warm universe: (daemon, seconds)."""
        self.launches += 1
        base = self.workdir / f"daemon-{self.launches}"
        start = time.perf_counter()
        daemon = Daemon(base.with_suffix(".store"), base.with_suffix(".log"),
                        profile_out)
        try:
            loader = LoadGenerator(daemon.host, daemon.port,
                                   self.connections, self.references)
            warmup = [Request(-1, 0.0, build, False) for build in self.warm]
            outcomes, _abandoned, _wall = loader.run(warmup, open_loop=False)
        except BaseException:
            daemon.kill()
            raise
        seconds = time.perf_counter() - start
        for outcome in outcomes:
            self.report.count(outcome.ok, f"warm-up {outcome.why}")
        # The pool forked its workers on the daemon's CPU; simulations
        # belong on the other cores.
        for pid in proc_children(daemon.proc.pid):
            os.sched_setaffinity(pid, self.worker_cpus)
        return daemon, seconds

    def finish(self, daemon: Daemon) -> None:
        code = daemon.drain()
        self.report.count(code == 0, f"daemon drain exited {code}")

    def run_step(self, daemon: Daemon, requests: Sequence[Request],
                 rate: float) -> Step:
        loader = LoadGenerator(daemon.host, daemon.port, self.connections,
                               self.references)
        outcomes, abandoned, _wall = loader.run(requests, open_loop=True)
        for outcome in outcomes:
            self.report.count(outcome.ok, outcome.why)
        return Step(rate, outcomes, abandoned)


def setup_daemons(run: ServeRun, launches: int):
    """Launch ``launches`` daemons; keep the last.

    Returns the daemon and each launch's seconds as timed and at
    reference host speed.
    """
    raw, scaled = [], []
    daemon = None
    before = calibrate()
    for _ in range(launches):
        if daemon is not None:
            run.finish(daemon)
        daemon, seconds = run.launch()
        after = calibrate()
        raw.append(seconds)
        scaled.append(at_reference_speed(seconds, (before, after)))
        before = after
    return daemon, raw, scaled


def layer_counters(stats: Dict) -> Dict[str, float]:
    store = stats.get("store") or {}
    return {
        "service.warm_memo": stats["warm_memo"],
        "service.coalesce_hits": stats["coalesce_hits"],
        "exec.store.stores": store.get("stores", 0),
        "exec.store.hits": store.get("hits", 0),
    }


def measure(seed: int, seconds: float, report, connections: int,
            worker_cpus) -> None:
    """Untraced run: ladder, reference rate and closed-loop passes."""
    run = ServeRun(seed, report, connections, worker_cpus)
    try:
        _measure(run, seconds, report, connections)
    finally:
        run.close()


def _measure(run: ServeRun, seconds: float, report, connections: int) -> None:
    ladder = [(rate, run.plan(rate, seconds * (REFERENCE_SHARE
                                              if rate == REFERENCE_RATE
                                              else STEP_SHARE)))
              for rate in LADDER]
    passes = [run.plan(0, PASS_REQUESTS, with_cold=False)
              for _ in range(PASSES)]
    run.prepare_references([requests for _rate, requests in ladder] + passes)
    report.note("checks: every 200 body byte-identical to an in-process "
                "reference; failures, non-200s and timeouts counted; "
                "SIGTERM drain exit 0")
    daemon, setup_raw, setup_scaled = setup_daemons(run, SETUP_LAUNCHES)
    yardstick = None
    try:
        yardstick = Yardstick()
        steps = []
        for rate, requests in ladder:
            step = run.run_step(daemon, requests, rate)
            steps.append(step)
            if not step.sustained:
                break
        # One connection: a strict request/response ping-pong between
        # the generator and the daemon on one CPU, whose cost does not
        # depend on how two clients' requests happen to interleave.  The
        # calibration loop does not track this syscall-heavy path when
        # the shared host slows; the echo yardstick, interleaved on the
        # same CPU, does.
        loader = LoadGenerator(daemon.host, daemon.port, 1, run.references)
        walls, cpus, p50s, trip_s, trip_cpu_s = [], [], [], [], []
        for requests in passes:
            daemon0, echo0 = task_cpu_s(daemon.proc.pid), yardstick.cpu_s()
            outcomes, trips = loader.interleaved(requests, yardstick)
            cpus.append(task_cpu_s(daemon.proc.pid) - daemon0)
            trip_cpu_s.append((yardstick.cpu_s() - echo0) / len(trips))
            trip_s.append(median(trips))
            walls.append(sum(outcome.latency_s for outcome in outcomes))
            p50s.append(percentile(Step(0.0, outcomes, 0).warm, 50))
            for outcome in outcomes:
                report.count(outcome.ok, outcome.why)
        stats = daemon.stats()
        processes = len(daemon.pids())
        rss = daemon.peak_rss_mb()
    finally:
        if yardstick is not None:
            yardstick.close()
        if daemon.proc.poll() is None:
            run.finish(daemon)
    reference = next((s for s in steps if s.rate == REFERENCE_RATE), None)
    if reference is None:
        raise SystemExit("perfbench: serve-mixed never reached the "
                         "reference rate")
    report.add("setup_s", median(setup_scaled), "s", len(setup_scaled),
               "daemon launch to warm universe loaded, at reference host "
               "speed, median")
    # Each pass is scaled by the echo round trips interleaved with it:
    # wall times by their median wall, daemon CPU by their mean CPU.
    speeds = [YARDSTICK_TRIP_S / trip for trip in trip_s]
    cpu_speeds = [YARDSTICK_TRIP_CPU_S / trip for trip in trip_cpu_s]
    serving = "at reference serving speed (echo yardstick), median"
    report.add("wall_s", median([
        wall * speed for wall, speed in zip(walls, speeds)]), "s",
        len(walls), f"closed-loop pass of {PASS_REQUESTS} warm requests "
        f"over one connection, request time summed, {serving}")
    report.add("cpu_s", median([
        cpu * speed for cpu, speed in zip(cpus, cpu_speeds)]), "s",
        len(cpus), f"daemon CPU per pass, {serving}")
    report.add("op_p50_ms", median([
        p50 * speed for p50, speed in zip(p50s, speeds)]), "ms", len(p50s),
        f"warm request latency, closed loop: per-pass median, {serving}")
    report.add("peak_rss_mb", rss, "MB", processes, "daemon + workers VmHWM")
    report.add("setup_s.raw", median(setup_raw), "s", len(setup_raw))
    report.add("wall_s.raw", median(walls), "s", len(walls))
    report.add("cpu_s.raw", median(cpus), "s", len(cpus))
    report.add("op_p50_ms.raw", median(p50s), "ms", len(p50s))
    warm = reference.warm
    report.add("warm_p50_ms", percentile(warm, 50), "ms", len(warm),
               f"at {REFERENCE_RATE:g} rps from due time")
    tail = tail_percentile(len(warm))
    if tail is not None and tail != 50:
        report.add(f"warm_p{tail:g}_ms", percentile(warm, tail), "ms",
                   len(warm), f"{samples_beyond(len(warm), tail)} samples "
                   f"beyond")
    cold = reference.cold
    report.add("cold_p50_ms", percentile(cold, 50), "ms", len(cold))
    sustained = [s.rate for s in steps if s.sustained]
    grew = next((s.rate for s in steps if s.backlog_grew), None)
    report.add("max_rate_rps", max(sustained) if sustained else 0.0, "1/s",
               len(steps), f"warm p99 <= {LATENCY_LIMIT_MS:g} ms, no growing "
               f"backlog; backlog grew at "
               f"{'no step' if grew is None else f'{grew:g} rps'}")
    report.add("loadgen.late_ms_max", reference.late_ms_max, "ms",
               len(reference.outcomes), f"at {REFERENCE_RATE:g} rps")
    for step in steps:
        report.note(f"step {step.rate:>6g} rps: {len(step.outcomes)} sent, "
                    f"{step.abandoned} abandoned, warm p99 "
                    f"{step.p99_ms:.3f} ms, backlog "
                    f"{'grew' if step.backlog_grew else 'steady'}")
    for name, value in layer_counters(stats).items():
        report.add(name, value, "count", 1)
    report.note(f"daemon: {stats.get('simulated')} simulated, kernel "
                f"{(stats.get('engine') or {}).get('kernel')}")


def trace(seed: int, seconds: float, report, connections: int, worker_cpus):
    """Traced run: the reference step untraced, then under the profiler.

    Returns the counters of the untraced side plus ``trace.overhead``,
    and the daemon's per-layer split ``{"self_s": ..., "calls": ...}``.
    """
    run = ServeRun(seed, report, connections, worker_cpus)
    try:
        return _trace(run, seconds, report)
    finally:
        run.close()


def _trace(run: ServeRun, seconds: float, report):
    profile_out = run.workdir / "daemon-profile.json"
    requests = run.plan(REFERENCE_RATE, seconds * 0.3)
    run.prepare_references([requests])
    sides = {}
    for traced in (False, True):
        daemon, _seconds = run.launch(profile_out if traced else None)
        try:
            service0 = task_cpu_s(daemon.proc.pid)
            workers0 = {pid: task_cpu_s(pid)
                        for pid in proc_children(daemon.proc.pid)}
            step = run.run_step(daemon, requests, REFERENCE_RATE)
            service_cpu = task_cpu_s(daemon.proc.pid) - service0
            pool_cpu = sum(task_cpu_s(pid) - workers0.get(pid, 0.0)
                           for pid in proc_children(daemon.proc.pid))
            stats = daemon.stats()
            sides[traced] = {
                "cpu": service_cpu + pool_cpu,
                "loadgen.late_ms_max": step.late_ms_max,
                "service.cpu_s": service_cpu,
                "exec.pool.cpu_s": pool_cpu,
                "simulated": stats["simulated"],
                **layer_counters(stats),
            }
        finally:
            run.finish(daemon)
    plain, traced = sides[False], sides[True]
    report.count(plain["simulated"] == traced["simulated"],
                 f"traced daemon simulated {traced['simulated']}, "
                 f"untraced {plain['simulated']}")
    report.note("checks: traced daemon answers byte-identically and "
                "simulates as many points as the untraced one")
    totals = {name: plain[name] for name in
              ("service.cpu_s", "exec.pool.cpu_s", "service.warm_memo",
               "service.coalesce_hits", "exec.store.stores",
               "exec.store.hits", "loadgen.late_ms_max")}
    totals["trace.overhead"] = traced["cpu"] / plain["cpu"] \
        if plain["cpu"] else 0.0
    return totals, json.loads(profile_out.read_text())
