"""Shared helpers of the repository benchmark: paths, statistics, output.

Kept free of ``repro`` imports so the environment can be pinned before
numpy or the simulator is loaded (see ``run.py``).
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"
#: Scratch space for logs, stores and profiles; ignored by git.
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 12345

#: Variables that would silently change the path under test.
CLEARED_ENV = ("REPRO_ENGINE", "REPRO_CHECK", "REPRO_CSOA", "REPRO_CACHE_DIR")
#: Math libraries must not start thread pools beside the simulator.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs this many samples beyond it to be reported.
TAIL_MIN_BEYOND = 10


def pin_environment(env: Dict[str, str]) -> None:
    """Clear the repro overrides and pin math-library threads in ``env``."""
    for name in CLEARED_ENV:
        env.pop(name, None)
    env.update(PINNED_ENV)
    src = str(SRC)
    current = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not current else src + os.pathsep + current


def pin_cpus() -> Tuple[Set[int], Set[int]]:
    """Pin this process to one CPU; return (that CPU, the others).

    Children inherit the pin, so the calibration loop, the simulator
    and the serving daemon share one core and one core speed.
    """
    cpus = sorted(os.sched_getaffinity(0))
    own = {cpus[0]}
    os.sched_setaffinity(0, own)
    return own, set(cpus[1:])


def use_source_tree() -> None:
    """Make ``repro`` and the repository's ``benchmarks`` importable."""
    for path in (str(BENCHMARKS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``p``-th."""
    return count - max(math.ceil(p / 100.0 * count), 1)


def tail_percentile(count: int) -> Optional[float]:
    """Highest reportable percentile: one with >= 10 samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(count, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


#: CPU seconds :func:`calibrate` takes on the reference host speed.
CALIBRATION_REFERENCE_S = 0.014
#: Steps of one :func:`calibration_loop`.
CALIBRATION_STEPS = 20000
#: Steps :class:`SpeedGauge` runs between two updates of its count.
GAUGE_CHUNK = 500


def calibrate(samples: int = 3) -> float:
    """The host's speed now: median CPU seconds of :func:`calibration_loop`.

    This host shares its cores with other machines, and their load
    changes its speed by up to half within seconds to minutes.  Timing
    the loop right before and after an operation gives the speed the
    operation ran at; :func:`at_reference_speed` divides it out.  The
    median of a few short samples resists a sample cut by a burst.
    """
    return statistics.median(calibration_loop() for _ in range(samples))


def calibration_loop(steps: int = CALIBRATION_STEPS) -> float:
    """CPU seconds of a fixed pure-Python event loop.

    The loop is the benchmark's own code, so no change to the program
    can move it: heap pops, generator resumes and dict updates, the
    simulator's kind of work.
    """
    start = time.process_time()
    calibration_steps(calibration_state(), steps)
    return time.process_time() - start


def calibration_state():
    """Fresh state of the calibration loop: 64 processes on a heap."""
    def process(pid):
        state = 0
        while True:
            state = (state * 1103515245 + pid) & 0xFFFF
            yield state & 63

    processes = [process(pid) for pid in range(64)]
    heap = [(0, pid) for pid in range(64)]
    histogram: Dict[int, int] = {}
    return processes, heap, histogram


def calibration_steps(state, steps: int) -> None:
    processes, heap, histogram = state
    for _ in range(steps):
        now, pid = heapq.heappop(heap)
        delay = next(processes[pid])
        histogram[delay] = histogram.get(delay, 0) + 1
        heapq.heappush(heap, (now + delay + 1, pid))


def at_reference_speed(seconds: float, calibrations: Sequence[float]) -> float:
    """``seconds`` measured between ``calibrations``, at reference speed."""
    return seconds * CALIBRATION_REFERENCE_S / statistics.fmean(calibrations)


def task_cpu_s(pid: int) -> float:
    """CPU seconds run by every thread of one live process.

    Read from ``schedstat`` (nanoseconds), not ``stat`` (10 ms ticks).
    """
    total = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
    except OSError:  # the process or one of its threads raced away
        pass
    return total / 1e9


def _gauge_main(count, parent: int) -> None:
    state = calibration_state()
    done = 0
    # Stop on our own if the benchmark dies without stopping us.
    while os.getppid() == parent:
        calibration_steps(state, GAUGE_CHUNK)
        done += GAUGE_CHUNK
        count.value = done


class SpeedGauge:
    """The calibration loop, run without end beside measured operations.

    A forked child on this process's CPU (the pin is inherited) runs
    the loop and counts its steps in shared memory.  The scheduler
    interleaves it with whatever else runs on the CPU in slices of a
    few milliseconds, so the gauge sees the host speed of the very
    interval an operation ran in.  Loops timed before and after an
    operation miss the swings within it: over six runs of one point on
    a shared host they scaled its time to 0.31-0.42 s, the gauge to
    0.39-0.45 s with five of the six within 0.39-0.40 s.  The price is
    the CPU the gauge takes, about half; :meth:`between` returns it so
    it can be taken out of a wall time.
    """

    def __init__(self):
        context = multiprocessing.get_context("fork")
        self._count = context.RawValue("q", 0)
        self._proc = context.Process(target=_gauge_main,
                                     args=(self._count, os.getpid()),
                                     daemon=True)
        self._proc.start()

    def reading(self) -> Tuple[int, float]:
        """(steps counted, gauge CPU seconds) now."""
        return self._count.value, task_cpu_s(self._proc.pid)

    @staticmethod
    def between(start: Tuple[int, float],
                end: Tuple[int, float]) -> Tuple[float, float]:
        """(calibration seconds, gauge CPU seconds) between two readings.

        The calibration seconds are what one :func:`calibration_loop`
        took at the gauge's speed over the interval, for
        :func:`at_reference_speed`.
        """
        steps, cpu = end[0] - start[0], end[1] - start[1]
        if steps < 4 * GAUGE_CHUNK or cpu <= 0:
            raise RuntimeError(f"speed gauge ran {steps} steps in {cpu:.6f} "
                               f"CPU seconds: too few to read a speed")
        return cpu * CALIBRATION_STEPS / steps, cpu

    def close(self) -> None:
        if self._proc.is_alive():
            self._proc.kill()
        self._proc.join()

    def __enter__(self) -> "SpeedGauge":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    """Metrics of one run: the printed table and the final JSON line."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: Dict[str, Dict] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, name: str, value: float, unit: str, samples: int,
            detail: str = "") -> None:
        if name in self.metrics:
            raise ValueError(f"metric {name!r} reported twice")
        self.metrics[name] = {"value": value, "unit": unit,
                              "samples": samples, "detail": detail}

    def note(self, text: str) -> None:
        self.notes.append(text)

    def count(self, ok: bool, what: str = "") -> None:
        """Account one attempted operation; a failure keeps its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.failures) < 20:
                self.failures.append(what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def table(self) -> List[str]:
        lines = [f"== {self.workload}"]
        lines.extend(f"   {note}" for note in self.notes)
        lines.append(f"   {'error_rate':<28} {self.error_rate:>14.6g} "
                     f"{'ratio':<6} n={self.attempted} "
                     f"(failed {self.failed})")
        for name, metric in self.metrics.items():
            value = metric["value"]
            text = f"{value:>14.6g}" if isinstance(value, float) \
                else f"{value:>14}"
            detail = f" {metric['detail']}" if metric["detail"] else ""
            lines.append(f"   {name:<28} {text} {metric['unit']:<6} "
                         f"n={metric['samples']}{detail}")
        lines.extend(f"   FAILED: {reason}" for reason in self.failures)
        return lines

    def result(self, names: Sequence[str]) -> Dict:
        """The result line's object: exactly the metrics in ``names``."""
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise KeyError(f"{self.workload}: metrics not measured: {missing}")
        return {
            "correct": self.attempted > 0 and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name]["value"],
                       "unit": self.metrics[name]["unit"]}
                for name in names
            },
        }
