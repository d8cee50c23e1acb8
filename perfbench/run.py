"""Repository benchmark: one command per workload, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload target-sweep --seed 12345 \\
        --seconds 20 --trace 0

Workloads: ``target-sweep``, ``abstract-sweep``, ``checked-faults``
(simulations driven in this process, see ``sim.py``) and
``serve-mixed`` (``repro serve`` under an open loop, see ``serve.py``).

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload once plain and once under the layer
profiler and reports the per-layer split and exact counters.  The
metric names and units come from ``BENCHMARK.json``.  The table goes to
standard output; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Set-up, not timed: the environment is pinned (``REPRO_*`` overrides
cleared, math-library threads at 1) and the optional ``_csoa``
extension is built in place the way CI's bench job builds it, since
users do not pay that per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from common import (BENCH_DIR, DEFAULT_SEED, ROOT, SRC, WORK, Report,
                    SpeedGauge, at_reference_speed, median, pin_cpus,
                    pin_environment, use_source_tree)

SIM_WORKLOADS = ("target-sweep", "abstract-sweep", "checked-faults")
WORKLOADS = SIM_WORKLOADS + ("serve-mixed",)
#: Fresh interpreters timed per run for a simulation workload's setup_s.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def require_checkout() -> None:
    """Refuse to run without the program's sources beside the benchmark."""
    for needed in (SRC / "repro" / "__init__.py", ROOT / "setup.py",
                   ROOT / "benchmarks" / "bench_service.py"):
        if not needed.is_file():
            raise SystemExit(f"perfbench: {needed} not found; run from the "
                             f"root of a checkout of the repository")


def build_extension() -> None:
    """Build ``repro.engine._csoa`` in place unless it is up to date."""
    source = SRC / "repro" / "engine" / "_csoa.c"
    built = list(source.parent.glob("_csoa*.so"))
    if built and min(p.stat().st_mtime for p in built) >= \
            source.stat().st_mtime:
        return
    with open(WORK / "build_ext.log", "w") as log:
        subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                       cwd=str(ROOT), stdout=log, stderr=subprocess.STDOUT,
                       check=False)


def load_metrics(trace: int):
    """(names reported by this run, unit of every metric) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"]
             for metric in spec["per_layer" if trace else "end_to_end"]]
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer"] + spec["end_to_end"]}
    return names, units


def environment_note(report: Report) -> None:
    from repro.engine import resolve_kernel
    from repro.engine.compiled import HAVE_EXTENSION

    report.note(f"env: kernel={resolve_kernel('auto')} "
                f"extension_loaded={int(HAVE_EXTENSION)} "
                f"python={platform.python_version()} "
                f"nproc={os.cpu_count()}")


def probe_setup(workload: str, seed: int, gauge: SpeedGauge):
    """Seconds from spawning a fresh interpreter until it is ready.

    Returns them as timed less the gauge's CPU, and at reference speed.
    """
    before = gauge.reading()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    line = proc.stdout.readline()
    seconds = time.perf_counter() - start
    calibration, gauge_cpu = gauge.between(before, gauge.reading())
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or not line.startswith("ready"):
        raise SystemExit(f"perfbench: set-up probe failed: {line!r}")
    alone = seconds - gauge_cpu
    return alone, at_reference_speed(alone, (calibration,))


def run_simulation(args, report: Report, units) -> None:
    import sim

    if args.trace:
        import layers

        tracer = layers.Tracer()
        totals = sim.trace(args.workload, args.seed, report, tracer)
        report_layers(report, tracer.self_s, tracer.calls)
        for name, value in totals.items():
            report.add(name, value, units[name], 1)
        return
    with SpeedGauge() as gauge:
        probes = [probe_setup(args.workload, args.seed, gauge)
                  for _ in range(SETUP_PROBES)]
        report.add("setup_s", median([scaled for _raw, scaled in probes]),
                   "s", len(probes),
                   "fresh interpreter to ready (imports, extension, "
                   "warm-up), at reference host speed (speed gauge), median")
        report.add("setup_s.raw", median([raw for raw, _scaled in probes]),
                   "s", len(probes), "as timed less the gauge's CPU, median")
        sim.measure(args.workload, args.seed, args.seconds, report, gauge)


def run_serve(args, report: Report, units, worker_cpus) -> None:
    import serve

    connections = max(1, min(2, os.cpu_count() or 1))
    report.note(f"load: open loop over {connections} keep-alive "
                f"connections, one process; daemon on the load "
                f"generator's CPU, pool workers on CPUs "
                f"{sorted(worker_cpus)}")
    if args.trace:
        totals, split = serve.trace(args.seed, args.seconds, report,
                                    connections, worker_cpus)
        report_layers(report, split["self_s"], split["calls"])
        for name, value in totals.items():
            report.add(name, value, units[name], 1)
        return
    serve.measure(args.seed, args.seconds, report, connections, worker_cpus)


def report_layers(report: Report, self_s, calls) -> None:
    import layers

    total = sum(self_s.values())
    shares = ", ".join(
        f"{name} {100.0 * self_s[name] / total:.1f}%"
        for name in sorted(self_s, key=self_s.get, reverse=True)
        if total and self_s[name] / total >= 0.005)
    report.note(f"layer shares of traced self time: {shares}")
    for layer in layers.LAYERS:
        report.add(f"{layer}.self_s", self_s.get(layer, 0.0), "s", 1)
        report.add(f"{layer}.calls", calls.get(layer, 0), "count", 1)


def fill_missing(report: Report, names, units) -> None:
    """Layers and counters a workload never enters read as exactly 0."""
    for name in names:
        if name not in report.metrics:
            report.add(name, 0, units[name], 0, "not used by this workload")


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    pin_environment(os.environ)
    own_cpu, other_cpus = pin_cpus()
    WORK.mkdir(exist_ok=True)
    build_extension()
    use_source_tree()
    import layers

    layers.check_map()
    names, units = load_metrics(args.trace)
    report = Report(args.workload)
    environment_note(report)
    if args.workload in SIM_WORKLOADS:
        run_simulation(args, report, units)
    else:
        run_serve(args, report, units, other_cpus or own_cpu)
    if args.trace:
        fill_missing(report, names, units)
    print("\n".join(report.table()))
    print(json.dumps(report.result(names)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
