"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import http.server
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from common import (ROOT, Report, SpeedGauge, calibration_loop,
                    percentile, samples_beyond, tail_percentile,
                    use_source_tree)

use_source_tree()

import layers  # noqa: E402
import serve  # noqa: E402
import sim  # noqa: E402


# -- percentiles and sample counts ---------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_tail_needs_ten_samples_beyond():
    assert samples_beyond(1000, 99) == 10
    assert tail_percentile(1000) == 99
    assert samples_beyond(999, 99) == 9
    assert tail_percentile(999) == 95
    assert tail_percentile(20) == 50
    assert tail_percentile(19) is None


def test_report_prints_units_and_sample_counts():
    report = Report("demo")
    report.add("warm_p99_ms", 4.25, "ms", 1600, "16 samples beyond")
    report.count(True)
    report.count(False, "request 3: status 500")
    table = "\n".join(report.table())
    assert "warm_p99_ms" in table and "ms" in table and "n=1600" in table
    assert "error_rate" in table and "n=2 (failed 1)" in table
    result = report.result(["warm_p99_ms"])
    assert result == {"correct": False, "attempted": 2, "failed": 1,
                      "metrics": {"warm_p99_ms": {"value": 4.25,
                                                  "unit": "ms"}}}
    with pytest.raises(KeyError):
        report.result(["cpu_s"])
    with pytest.raises(ValueError):
        report.add("warm_p99_ms", 1.0, "ms", 1)


# -- module->layer map ---------------------------------------------------------------


def test_every_repro_module_has_a_layer():
    assert layers.unmapped_modules() == []
    assert layers.layer_of_module("repro.core.machine") == "core.machine"
    assert layers.layer_of_module("repro.memory.directory") == \
        "core.coherence"
    assert layers.layer_of_module("repro.core.clogp") == "core.logp"
    assert layers.layer_of_module("repro.exec.store") == "exec.store"
    assert layers.layer_of_module("repro.apps.fft") == "apps"


def test_new_module_in_a_mixed_package_is_unmapped(tmp_path):
    package = tmp_path / "repro"
    for relative in ("__init__.py", "core/__init__.py", "core/machine.py",
                     "core/brand_new.py", "apps/__init__.py",
                     "apps/brand_new.py"):
        path = package / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
    assert layers.unmapped_modules(tmp_path) == ["repro.core.brand_new"]


def test_library_time_goes_to_the_calling_layer(tmp_path):
    src = tmp_path
    app = str(src / "repro" / "apps" / "fft.py")
    engine = str(src / "repro" / "engine" / "core.py")
    builtin = ("~", 0, "<built-in method math.sqrt>")
    app_fn, engine_fn = (app, 1, "step"), (engine, 1, "run")
    stats = {
        engine_fn: (1, 1, 0.5, 4.5, {}),
        app_fn: (10, 10, 1.0, 4.0, {engine_fn: (10, 10, 1.0, 4.0)}),
        builtin: (30, 30, 3.0, 3.0, {app_fn: (20, 20, 2.0, 2.0),
                                     engine_fn: (10, 10, 1.0, 1.0)}),
    }
    self_s, calls = layers.LayerProfile(src).attribute(stats)
    assert math.isclose(self_s["apps"], 3.0)
    assert math.isclose(self_s["engine"], 1.5)
    assert calls["apps"] == 10 and calls["engine"] == 1


# -- the open-loop schedule ----------------------------------------------------------


WARM = [{"app": "fft", "machine": m, "nprocs": 4, "preset": "quick"}
        for m in ("target", "logp", "clogp")]


def test_schedule_is_a_function_of_the_seed():
    first = serve.schedule(12345, 200.0, 5.0, 0, WARM)
    assert first == serve.schedule(12345, 200.0, 5.0, 0, WARM)
    assert first != serve.schedule(7, 200.0, 5.0, 0, WARM)
    assert len(first) == 1000
    assert [r.due_s for r in first[:3]] == [0.0, 0.005, 0.01]


def test_cold_requests_are_spaced_by_index_with_fresh_seeds():
    requests = serve.schedule(12345, 200.0, 5.0, 30, WARM)
    cold = [r for r in requests if r.cold]
    assert [r.index for r in cold] == list(range(49, 1030, 50))
    assert len({r.build["seed"] for r in cold}) == len(cold)
    assert all(r.build == serve.cold_build(12345, r.index) for r in cold)
    assert all(r.build in WARM for r in requests if not r.cold)


def test_closed_loop_batch_is_due_at_once():
    batch = serve.schedule(1, 0, 120, 0, WARM)
    assert len(batch) == 120 and {r.due_s for r in batch} == {0.0}
    assert sum(r.cold for r in batch) == 2


# -- failure accounting --------------------------------------------------------------


def test_reference_mismatch_is_a_failed_point():
    report = Report("target-sweep")
    invariants = {"sim_events": 5, "messages": 2, "total_ns": 90,
                  "buckets": "ab"}
    run = sim.PointRun("target/fft/full/p4", 0.1, 0.1, invariants, {},
                       True, "compiled", 1)
    checker = sim.PointChecker(
        report, {"target/fft/full/p4": dict(invariants, total_ns=91)})
    checker.check(run)
    assert report.failed == 1 and report.error_rate > 0
    clean = Report("target-sweep")
    sim.PointChecker(clean, {"target/fft/full/p4": invariants}).check(run)
    assert clean.failed == 0 and clean.error_rate == 0


def test_invariants_must_repeat_across_passes():
    report = Report("target-sweep")
    checker = sim.PointChecker(report, None)
    base = {"sim_events": 5, "messages": 2, "total_ns": 90, "buckets": "ab"}
    for total in (90, 90, 91):
        checker.check(sim.PointRun("p", 0.1, 0.1, dict(base, total_ns=total),
                                   {}, True, "soa", 0))
    assert (report.attempted, report.failed) == (3, 1)


class _FixedBody(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 -- http.server naming
        self.rfile.read(int(self.headers["Content-Length"]))
        body = b'{"not":"the reference"}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_serve_body_mismatch_raises_error_rate():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _FixedBody)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        requests = serve.schedule(3, 200.0, 0.3, 0, WARM)
        loader = serve.LoadGenerator("127.0.0.1", server.server_address[1],
                                     2, {})
        loader.references = {loader.digest(r.build): b"reference"
                             for r in requests}
        outcomes, abandoned, _wall = loader.run(requests)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert abandoned == 0 and len(outcomes) == len(requests)
    report = Report("serve-mixed")
    for outcome in outcomes:
        report.count(outcome.ok, outcome.why)
    assert report.error_rate == 1.0
    step = serve.Step(200.0, outcomes, 0)
    assert step.p99_ms == float("inf") and not step.sustained


def test_closed_pass_interleaves_one_echo_per_few_requests():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _FixedBody)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yardstick = serve.Yardstick()
    try:
        requests = serve.schedule(3, 0, 10, 0, WARM, with_cold=False)
        loader = serve.LoadGenerator("127.0.0.1", server.server_address[1],
                                     1, {})
        loader.references = {loader.digest(r.build): b"reference"
                             for r in requests}
        outcomes, trips = loader.interleaved(requests, yardstick)
    finally:
        yardstick.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert len(outcomes) == 10 and not any(o.ok for o in outcomes)
    assert len(trips) == 10 // serve.YARDSTICK_EVERY
    assert all(trip > 0 for trip in trips)


# -- host speed ----------------------------------------------------------------------


def test_speed_gauge_reads_the_speed_of_the_interval():
    with SpeedGauge() as gauge:
        start = gauge.reading()
        for _ in range(10):
            calibration_loop()
        calibration_s, gauge_cpu_s = gauge.between(start, gauge.reading())
        process = gauge._proc
    assert calibration_s > 0 and gauge_cpu_s > 0
    assert not process.is_alive()


def test_speed_gauge_refuses_an_interval_it_barely_ran_in():
    with pytest.raises(RuntimeError):
        SpeedGauge.between((0, 0.0), (100, 0.001))


# -- the contract outside a checkout -------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "target-sweep",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_echo_yardstick_times_round_trips():
    yardstick = serve.Yardstick()
    try:
        cpu0 = yardstick.cpu_s()
        wall = sum(yardstick.trip() for _ in range(20))
        cpu = yardstick.cpu_s() - cpu0
    finally:
        yardstick.close()
    assert wall > 0 and cpu > 0
    assert yardstick.proc.returncode is not None
