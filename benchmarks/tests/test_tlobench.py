"""Tests of the benchmark itself: every workload at a tiny size, a traced
run with wrapped functions missing, and the exit without sources.

    python3 -m pytest benchmarks/tests -q
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tlo.cli  # noqa: E402
import tlo.feasibility  # noqa: E402
from tlobench import hostclock, workloads  # noqa: E402
from tlobench.tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

TINY = {
    "search_variable": dict(budget=400, population=40, reports=2, report_passes=2),
    "search_constant": dict(budget=80, population=20, reports=2, report_passes=2),
    "screen_variable": dict(budget=300, population=300, commands=2, report_passes=2),
    "trace_gravity": dict(designs=4, setup_budget=600),
}


@pytest.fixture(autouse=True)
def bench_out(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT", tmp_path / "bench_out")
    return tmp_path / "bench_out"


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_of_every_workload(name):
    result = workloads.run_workload(name, 0, 0, False, tiny(name))
    assert result["failed"] == 0
    assert result["attempted"] > 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reads_zero_for_a_missing_layer(monkeypatch, bench_out):
    # a scenario without gravity never needs gravity_center, so the run
    # stands in for one made after the function was removed
    monkeypatch.delattr(tlo.cli, "gravity_center")
    monkeypatch.delattr(tlo.feasibility, "gravity_center")
    result = workloads.run_workload("search_constant", 0, 0, True, tiny("search_constant"))
    assert result["failed"] == 0
    assert result["missing_layers"] == ["feasibility.gravity_center"]
    metrics = result["metrics"]
    assert set(metrics) == PER_LAYER
    assert metrics["feasibility.gravity_center.self_s"]["value"] == 0
    assert metrics["simplex.calls"]["value"] > 0
    assert metrics["nsga2.gen_ms"]["value"] > 0
    assert (bench_out / "spans-search_constant-0.json").is_file()
    # the originals are back after the traced run
    assert not hasattr(tlo.cli.evolve, "__wrapped__")


def test_self_time_subtracts_direct_children():
    tr = Tracer(layers=())
    with tr.span("outer"):
        with tr.span("inner"):
            with tr.span("leaf"):
                pass
    names, _, dur, _ = tr.arrays()
    self_ns = tr.self_times()
    assert self_ns[0] == dur[0] - dur[1]
    assert self_ns[1] == dur[1] - dur[2]
    assert tr.nearest("outer").tolist() == [0, 0, 0]


def test_host_clock_corrects_by_the_samples_beside_a_unit():
    ref = hostclock.REFERENCE_S
    clock = hostclock.HostClock()
    clock.at = [0.0, 0.1, 0.2, 5.0]
    clock.cost = [ref, 2 * ref, 3 * ref, 10 * ref]
    assert clock.slowdown(0.0, 0.2) == pytest.approx(2.0)
    assert clock.slowdown(4.9, 5.1) == pytest.approx(10.0)
    assert clock.slowdown(1.0, 1.2) == pytest.approx(3.0)  # none within the window: the nearest


def test_host_clock_samples_while_active_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(clock.at) >= 2
    assert clock.spent >= sum(clock.cost) > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "search_constant",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
