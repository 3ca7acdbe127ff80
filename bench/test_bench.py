"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They run real frobkit instances on the smallest schedules (about a minute).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import pytest

import run as bench
import workloads
from refclock import ReferenceClock
from workloads import WORKLOADS

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_minimal_run_emits_every_end_to_end_metric(name):
    result, stamp = bench.run(name, seed=1, seconds=0, trace=False, max_rounds=1)
    assert result["correct"], stamp["failures"]
    assert result["attempted"] == len(stamp["instances"]) >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_reference_clock_samples_during_a_call_and_restores_the_signal():
    handler = signal.getsignal(signal.SIGALRM)

    def busy(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass
        return "done"

    clock = ReferenceClock()
    start = perf_counter()
    result, raw, scaled = clock.measure(busy, 0.35)
    wall = perf_counter() - start
    assert result == "done"
    assert clock.samples >= 4  # before, at least two during, after
    assert 0.25 < raw < 0.35 < wall  # the samples taken during the call are left out
    assert scaled > 0
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_baseline_cases_run_in_round_zero():
    for name, workload in WORKLOADS.items():
        if workload.baseline is not None:
            assert workload.baseline in workload.schedule(7)[0], name


def test_schedule_is_seeded_and_never_repeats_an_instance():
    for workload in WORKLOADS.values():
        rounds = workload.schedule(3)
        flat = [inst.name for batch in rounds for inst in batch]
        assert len(flat) == len(set(flat))
        assert workload.warmup.name not in flat
        assert [i.name for b in workload.schedule(3) for i in b] == flat
        assert [i.name for b in workload.schedule(4) for i in b] != flat


def test_planted_wrong_expectations_are_counted_as_failures(monkeypatch):
    groupoid = WORKLOADS["whopf-groupoid"]
    right = workloads._whopf(("group", "--cyclic", "3"), "integrals", 1)
    wrong_dim = dataclasses.replace(
        workloads._whopf(("group", "--cyclic", "4"), "integrals", 1),
        expect=workloads.Expect(0, "none", integral_dim=2),
    )
    # n=2, ell=2, m=1,2 has no counit: NonCounitalOnly, not Frobenius.
    wrong_class = dataclasses.replace(
        workloads._nsy_check(2, 2, (1, 2)),
        expect=workloads.Expect(0, "pass", workloads.FROBENIUS),
    )
    planted = dataclasses.replace(
        groupoid, strata=((1, (right,)), (1, (wrong_dim,)), (1, (wrong_class,))), baseline=None
    )
    monkeypatch.setitem(WORKLOADS, "whopf-groupoid", planted)
    result, stamp = bench.run("whopf-groupoid", seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert stamp["failed_frac"] == pytest.approx(2 / 3)


def test_two_traced_runs_give_identical_call_counts():
    runs = [bench.run("verify-mixed", seed=5, seconds=0, trace=True) for _ in range(2)]
    for result, stamp in runs:
        assert result["correct"], stamp["failures"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
        assert stamp["untraced_targets"] == []
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
              for r, _ in runs]
    assert counts[0] == counts[1]
    assert counts[0]["finalg.comult_from_json.calls"] == len(runs[0][1]["instances"])
    assert runs[0][1]["stdout_sha256"] == runs[1][1]["stdout_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nsy-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
