"""The simulation workloads: fixed point sets run in this process.

* ``target-sweep`` -- the detailed CC-NUMA target at p=32 on
  default-preset inputs: the compiled event loop, flat memory
  transactions, the coherence planner and the caches do the work.
* ``abstract-sweep`` -- the same points on the LogP and CLogP
  abstractions: the LogP gates and the address map dominate; the
  fabric, directory and flat ops are bypassed.
* ``checked-faults`` -- the target at p=16 on quick inputs with 1%
  message loss and the basic sanitizer: the object kernel, the general
  generators, reliable ARQ delivery and the checkers.  Its cost swings
  with the input seed (which messages drop, and what the retries set
  off), so each point runs on two inputs derived from the seed.

Every point is checked: the application's own ``verify()``, identical
invariants on every pass of the run, and -- for the seed the
references were recorded with -- equality with ``references.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (BENCH_DIR, SpeedGauge, at_reference_speed, median,
                    peak_rss_mb)
from repro import RunSpec
from repro.core.runner import simulate_full
from repro.faults.config import FaultConfig

REFERENCES = BENCH_DIR / "references.json"

SWEEP_APPS = ("cholesky", "cg", "is", "fft", "mg")
FAULT_APPS = ("cholesky", "fft", "cg")
TOPOLOGIES = ("full", "mesh")


def input_seed(seed: int, index: int) -> int:
    """Seed of a point's ``index``-th input; the first is ``seed`` itself."""
    return seed if index == 0 else (seed * 1_000_003 + index) % (2 ** 31 - 1)


@dataclass(frozen=True)
class SimWorkload:
    machines: Tuple[str, ...]
    apps: Tuple[str, ...]
    nprocs: int
    preset: str
    drop_rate: float = 0.0
    check: str = "off"
    #: Inputs each point runs on, derived from the workload seed.
    inputs: int = 1

    def specs(self, seed: int) -> List[Tuple[str, RunSpec]]:
        fault = FaultConfig(drop_rate=self.drop_rate) if self.drop_rate \
            else None
        return [
            (f"{machine}/{app}/{topology}/p{self.nprocs}"
             + (f"/in{index}" if self.inputs > 1 else ""),
             RunSpec.build(app, machine, self.nprocs, topology,
                           preset=self.preset, seed=input_seed(seed, index),
                           fault=fault, check=self.check))
            for machine in self.machines
            for app in self.apps
            for topology in TOPOLOGIES
            for index in range(self.inputs)
        ]

    def warmup_specs(self, seed: int) -> List[RunSpec]:
        """One small run per machine: loads every lazily imported path."""
        fault = FaultConfig(drop_rate=self.drop_rate) if self.drop_rate \
            else None
        return [RunSpec.build("fft", machine, 4, "full", preset="quick",
                              seed=seed, fault=fault, check=self.check)
                for machine in self.machines]


WORKLOADS = {
    "target-sweep": SimWorkload(("target",), SWEEP_APPS, 32, "default"),
    "abstract-sweep": SimWorkload(("logp", "clogp"), SWEEP_APPS, 32,
                                  "default"),
    "checked-faults": SimWorkload(("target",), FAULT_APPS, 16, "quick",
                                  drop_rate=0.01, check="basic", inputs=2),
}

#: Exact counters read from the machine after each point.
COUNTERS = (
    "engine.events", "engine.heap_pops", "engine.ring_pops",
    "engine.flat_tx", "engine.flat_posts",
    "memory.cache.hits", "memory.cache.misses",
    "network.messages", "network.link_wait_ns",
    "core.logp_net.messages", "core.logp_net.stall_ns",
    "faults.retransmissions",
)


@dataclass
class PointRun:
    point: str
    wall_s: float
    cpu_s: float
    invariants: Dict
    counters: Dict[str, int]
    verified: bool
    kernel: str
    extension_loaded: int
    #: Calibration seconds the speed gauge read over the point.
    calibration_s: float = 0.0
    #: CPU seconds the gauge took from the point's wall time.
    gauge_cpu_s: float = 0.0

    @property
    def alone_s(self) -> float:
        """Wall time less the gauge's slices: the point run alone."""
        return self.wall_s - self.gauge_cpu_s

    @property
    def wall_ref_s(self) -> float:
        return at_reference_speed(self.alone_s, (self.calibration_s,))

    @property
    def cpu_ref_s(self) -> float:
        return at_reference_speed(self.cpu_s, (self.calibration_s,))


def invariants(result) -> Dict:
    """What a simulation computed, independent of how fast."""
    buckets = json.dumps([vars(b) for b in result.buckets], sort_keys=True)
    return {
        "sim_events": result.sim_events,
        "messages": result.messages,
        "total_ns": result.total_ns,
        "buckets": hashlib.blake2b(buckets.encode(), digest_size=16)
        .hexdigest(),
    }


def counters(result, machine) -> Dict[str, int]:
    engine = result.engine
    memory = getattr(machine, "memory", None)
    caches = getattr(memory, "caches", ())
    fabric = getattr(machine, "fabric", None)
    net = getattr(machine, "net", None)
    reliable = getattr(machine, "reliable", None)
    return {
        "engine.events": result.sim_events,
        "engine.heap_pops": engine["heap_pops"],
        "engine.ring_pops": engine["ring_pops"],
        "engine.flat_tx": engine["flat_tx"],
        "engine.flat_posts": engine["flat_posts"],
        "memory.cache.hits": sum(cache.hits for cache in caches),
        "memory.cache.misses": sum(cache.misses for cache in caches),
        "network.messages": fabric.messages if fabric else 0,
        "network.link_wait_ns": fabric.total_link_wait_ns() if fabric else 0,
        "core.logp_net.messages": net.messages if net else 0,
        "core.logp_net.stall_ns": net.total_stall_ns if net else 0,
        "faults.retransmissions": reliable.retransmissions if reliable else 0,
    }


def run_point(point: str, spec: RunSpec) -> PointRun:
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    app = spec.make_application()
    result, machine = simulate_full(app, spec.machine, spec.config,
                                    max_events=spec.max_events)
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    return PointRun(point, wall, cpu, invariants(result),
                    counters(result, machine), bool(result.verified),
                    result.engine["kernel"],
                    int(result.engine["extension_loaded"]))


def load_references(workload: str, seed: int) -> Optional[Dict]:
    data = json.loads(REFERENCES.read_text())
    if data.get("seed") != seed:
        return None
    return data["workloads"].get(workload)


class PointChecker:
    """Checks every point run and accounts failures in the report."""

    def __init__(self, report, references: Optional[Dict]):
        self.report = report
        self.references = references
        self.first: Dict[str, Dict] = {}

    def check(self, run: PointRun) -> None:
        problems = []
        if not run.verified:
            problems.append("app.verify() failed")
        expected = self.first.setdefault(run.point, run.invariants)
        if run.invariants != expected:
            problems.append(f"invariants changed between passes: "
                            f"{expected} -> {run.invariants}")
        if self.references is not None:
            reference = self.references.get(run.point)
            if run.invariants != reference:
                problems.append(f"invariants {run.invariants} != "
                                f"reference {reference}")
        self.report.count(not problems,
                          f"{run.point}: {'; '.join(problems)}")

    def fail(self, point: str, error: BaseException) -> None:
        self.report.count(False, f"{point}: {type(error).__name__}: {error}")


def run_pass(specs, checker: PointChecker,
             gauge: Optional[SpeedGauge] = None,
             keep_going=None) -> List[PointRun]:
    """Run the points in order; with a ``gauge``, read the host speed of each.

    ``keep_going(point)`` returning false ends the pass before ``point``.
    """
    runs = []
    for point, spec in specs:
        if keep_going is not None and not keep_going(point):
            break
        start = gauge.reading() if gauge is not None else None
        try:
            point_run = run_point(point, spec)
        except Exception as error:  # noqa: BLE001 -- a failed operation
            checker.fail(point, error)
            continue
        if gauge is not None:
            point_run.calibration_s, point_run.gauge_cpu_s = \
                gauge.between(start, gauge.reading())
        checker.check(point_run)
        runs.append(point_run)
    return runs


def describe_checks(report, references: Optional[Dict], seed: int) -> None:
    checks = "app.verify(), invariants identical on every pass"
    if references is not None:
        checks += ", invariants equal to references.json"
    else:
        checks += (f" (references.json has no entry for seed {seed}; "
                   f"reference comparison skipped)")
    report.note(f"checks: {checks}")


def warm_up(workload: SimWorkload, seed: int) -> None:
    """Finish lazy imports and first-use paths before timing.

    ``setup_s`` times them separately, in fresh interpreters.
    """
    for spec in workload.warmup_specs(seed):
        run_point("warm-up", spec)


def measure(name: str, seed: int, seconds: float, report,
            gauge: SpeedGauge) -> None:
    """Untraced run: passes over the point set until ``seconds`` is used.

    Every point is scaled by the host speed ``gauge`` read while it ran.
    """
    workload = WORKLOADS[name]
    specs = workload.specs(seed)
    references = load_references(name, seed)
    describe_checks(report, references, seed)
    checker = PointChecker(report, references)
    warm_up(workload, seed)
    by_point: Dict[str, List[PointRun]] = {point: [] for point, _ in specs}
    start = time.perf_counter()
    out_of_time = []

    def fits(point: str) -> bool:
        """Start a point only if its last run would still end in time."""
        last = by_point[point][-1].wall_s if by_point[point] else 0.0
        if time.perf_counter() - start + last <= seconds:
            return True
        out_of_time.append(point)
        return False

    # One whole pass, then passes that stop at the first point that
    # would overrun ``seconds``: every point gets one sample or more.
    for run in run_pass(specs, checker, gauge):
        by_point[run.point].append(run)
    # Peak memory of one pass; later passes only add allocator
    # fragmentation, which depends on how many passes fit.
    rss = peak_rss_mb()
    while not out_of_time:
        runs = run_pass(specs, checker, gauge, keep_going=fits)
        if not runs:
            break
        for run in runs:
            by_point[run.point].append(run)
    runs = [run for point_runs in by_point.values() for run in point_runs]
    if not runs:
        raise SystemExit(f"perfbench: every point of {name} failed")
    measured = [point_runs for point_runs in by_point.values() if point_runs]
    passes = min(len(point_runs) for point_runs in measured)
    report.note(f"points: {len(specs)}, {len(runs)} point runs; kernel "
                f"{runs[0].kernel}, extension_loaded "
                f"{runs[0].extension_loaded}")
    wall = [median([r.wall_ref_s for r in point_runs])
            for point_runs in measured]
    cpu = [median([r.cpu_ref_s for r in point_runs])
           for point_runs in measured]
    scaling = "at reference host speed (speed gauge), per-point medians"
    report.add("wall_s", sum(wall), "s", passes, f"one pass {scaling}, summed")
    report.add("cpu_s", sum(cpu), "s", passes, f"one pass {scaling}, summed")
    report.add("op_p50_ms", median(wall) * 1000.0, "ms", len(wall),
               f"median point wall time {scaling}")
    report.add("wall_s.raw", sum(median([r.alone_s for r in point_runs])
                                 for point_runs in measured), "s", passes,
               "one pass as timed less the gauge's CPU, per-point "
               "medians summed")
    report.add("cpu_s.raw", sum(median([r.cpu_s for r in point_runs])
                                for point_runs in measured), "s", passes,
               "one pass as timed, per-point medians summed")
    report.add("peak_rss_mb", rss, "MB", 1, "this process, first pass")


def trace(name: str, seed: int, report, tracer) -> Dict[str, float]:
    """Traced run: one untraced pass, then the same pass under the tracer.

    Returns the exact counters of the untraced pass plus
    ``trace.overhead``; the tracer holds the per-layer split.
    """
    workload = WORKLOADS[name]
    specs = workload.specs(seed)
    references = load_references(name, seed)
    describe_checks(report, references, seed)
    report.note("checks: traced invariants, engine.flat_tx and "
                "engine.flat_posts equal to the untraced pass")
    checker = PointChecker(report, references)
    warm_up(workload, seed)
    cpu0 = time.process_time()
    plain = run_pass(specs, checker)
    plain_cpu = time.process_time() - cpu0
    cpu0 = time.process_time()
    traced = tracer.run(run_pass, specs, checker)
    traced_cpu = time.process_time() - cpu0
    plain_by_point = {run.point: run for run in plain}
    for run in traced:
        reference = plain_by_point.get(run.point)
        same = reference is not None and (
            run.invariants == reference.invariants
            and run.counters["engine.flat_tx"]
            == reference.counters["engine.flat_tx"]
            and run.counters["engine.flat_posts"]
            == reference.counters["engine.flat_posts"])
        report.count(same, f"{run.point}: traced run took another path")
    totals = dict.fromkeys(COUNTERS, 0)
    for run in plain:
        for counter in COUNTERS:
            totals[counter] += run.counters[counter]
    if plain:
        report.note(f"kernel {plain[0].kernel}, extension_loaded "
                    f"{plain[0].extension_loaded}")
    totals["trace.overhead"] = traced_cpu / plain_cpu if plain_cpu else 0.0
    return totals


def record_references(seed: int) -> Dict:
    """Invariants of every workload's points for ``seed``."""
    workloads = {}
    for name, workload in WORKLOADS.items():
        workloads[name] = {point: run_point(point, spec).invariants
                           for point, spec in workload.specs(seed)}
    return {"seed": seed, "workloads": workloads}
