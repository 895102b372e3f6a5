"""The scripts in `scripts/` run from any directory and print fixed output."""
from __future__ import annotations

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cases import child_env

ROOT = Path(__file__).resolve().parent.parent


def run_script(cwd, name, *argv):
    env = child_env()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_galois_sweep(tmp_path):
    assert run_script(tmp_path, "galois_sweep.py", "--count", "200", "--seed", "0") == (
        "200 systems, all adjunction checks passed\n"
        "verdicts: {'safe': 173, 'unsafe': 27}\n"
        "join steps to stabilize the least chain:\n"
        "   0: 119\n"
        "   1: 47\n"
        "   2: 26\n"
        "   3: 6\n"
        "   4: 2\n"
    )


def test_hylo_census(tmp_path):
    assert run_script(tmp_path, "hylo_census.py", "--max-states", "3") == (
        "states  machines  solution counts\n"
        "     1         2  {0:1, 2:1}  (0 well-founded)\n"
        "     2        16  {0:9, 2:6, 4:1}  (0 well-founded)\n"
        "     3       216  {0:129, 2:68, 4:18, 8:1}  (0 well-founded)\n"
    )


def test_render_carpet(tmp_path):
    out = run_script(
        tmp_path, "render_carpet.py", "--depth", "2", "--res", "27", "--out", "carpet.pgm"
    )
    assert out == (
        "wrote carpet.pgm (27x27, depth 2)\n"
        "depth     inside   fraction    (8/9)^d\n"
        "    0        729   1.000000   1.000000\n"
        "    1        648   0.888889   0.888889\n"
        "    2        576   0.790123   0.790123\n"
    )
    raw = (tmp_path / "carpet.pgm").read_bytes()
    header = b"P5\n27 27\n255\n"
    assert raw.startswith(header) and len(raw) == len(header) + 27 * 27
    assert raw[len(header):].count(0) == 576
    assert hashlib.sha256(raw).hexdigest() == (
        "50891858912a51dc22aa503f3fad92f5b49a6fd90d10c7eabeb05c2219bb302e"
    )


def load_bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_ab_statistics_on_fixed_inputs():
    summarize = load_bench_ab().summarize
    parent, change = [10, 20, 30, 40, 50], [12, 18, 30, 41, 45]
    assert summarize(parent, change, "higher") == {
        "change": {"median": 30, "q1": 18, "q3": 41},
        "change_better_pairs": 2,  # a tie counts for neither side
        "pairs": 5,
        "parent": {"median": 30, "q1": 20, "q3": 40},
        "raw_change": change,
        "raw_parent": parent,
    }
    assert summarize(parent, change, "lower")["change_better_pairs"] == 2
    assert summarize([1.23456], [0.5], "lower")["parent"] == {"median": 1.2346, "q1": 1.2346, "q3": 1.2346}
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower")


def test_bench_ab_reproduces_a_checked_in_file():
    # the statistics of an earlier paired run, recomputed from its raw values
    summarize = load_bench_ab().summarize
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    doc = json.loads((ROOT / "BENCH_21.json").read_text())
    for workload in doc["workloads"].values():
        for name, metric in workload["metrics"].items():
            assert summarize(metric["raw_parent"], metric["raw_change"], better[name]) == metric
    # and the tier-1 seconds and criterion times of a paired run with --tier1
    tier1 = json.loads((ROOT / "BENCH_27.json").read_text())["tier1"]
    timings = [tier1["seconds"], *tier1["criteria"].values()]
    assert len(timings) == 10
    for metric in timings:
        assert summarize(metric["raw_parent"], metric["raw_change"], "lower") == metric


def test_bench_ab_reads_each_workloads_result_line():
    stdout = (
        "# relfix benchmark: workload sweep, seed 3, python 3.11.7, nproc 2\n"
        "# 10 operations attempted, 0 failed\n"
        "ops_per_s          100 1/s\n"
        '{"correct": true, "attempted": 10, "failed": 0, "metrics": {"ops_per_s": {"value": 100, "unit": "1/s"}}}\n'
        "# relfix benchmark: workload cli, seed 3, python 3.11.7, nproc 2\n"
        '{"correct": false, "attempted": 4, "failed": 1, "metrics": {}}\n'
        '{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}\n'
    )
    got = load_bench_ab().parse_results(stdout)
    assert list(got) == ["sweep", "cli"]
    assert got["sweep"]["metrics"]["ops_per_s"]["value"] == 100
    assert got["cli"] == {"correct": False, "attempted": 4, "failed": 1, "metrics": {}}


def test_bench_ab_reads_tier1_times():
    stdout = (
        "........................................................................ [ 15%]\n"
        "==================================== PASSES ====================================\n"
        "_____________________ test_criterion_8_cartesian_classification _____________________\n"
        "----------------------------- Captured stdout call -----------------------------\n"
        "criterion 8/9 cartesian classification: PASS (36.6s)\n"
        "criterion 9/9 carpet approximants: PASS (0s)\n"
        "criterion 1/9 galois connection: PASS (0.0s)\n"
        "criterion 2/9 fixed-point law: PASS (0.012s)\n"
        "not a criterion 2/9 line: PASS (1.0s)\n"
        "1 failed, 469 passed, 2 warnings in 150.20s (0:02:30)\n"
    )
    got = load_bench_ab().parse_tier1(stdout)
    assert got == {"counts": {"failed": 1, "passed": 469, "warnings": 2},
                   "criteria": {"8": 36.6, "9": 0.0, "1": 0.0, "2": 0.012}, "seconds": 150.2}
    assert load_bench_ab().parse_tier1("= 470 passed in 47.59s =\n")["seconds"] == 47.59
    with pytest.raises(ValueError):
        load_bench_ab().parse_tier1("criterion 8/9 cartesian classification: PASS (36.6s)\n")


def test_bench_ab_summarizes_tier1_runs_by_pair():
    bench_ab = load_bench_ab()
    run = lambda seconds, c8: {"counts": {"passed": 470}, "criteria": {"8": c8, "9": 0.4}, "seconds": seconds}
    tier1 = {"parent": [run(50.0, 37.0), run(52.0, 38.0)], "change": [run(49.0, 36.0), run(53.0, 37.5)]}
    tier1["change"][1]["criteria"].pop("9")  # a criterion missing from one run is left out
    got = bench_ab.tier1_summary(tier1)
    assert sorted(got) == ["command", "counts", "criteria", "seconds"]
    assert list(got["criteria"]) == ["8"]
    assert got["criteria"]["8"] == bench_ab.summarize([37.0, 38.0], [36.0, 37.5], "lower")
    assert got["seconds"] == bench_ab.summarize([50.0, 52.0], [49.0, 53.0], "lower")
    assert got["seconds"]["change_better_pairs"] == 1
    assert got["counts"]["change"] == [{"passed": 470}] * 2
