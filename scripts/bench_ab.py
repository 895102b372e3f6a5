"""Paired A/B benchmark of two revisions, written as a `BENCH_*.json` file.

Exports both revisions with `git archive` into a temporary directory and
alternates `bench/run.py` between them, one pair per seed: odd seeds run the
parent first, even seeds the change first, so a drift in the host's speed
falls on both sides alike.  Each metric is summarized per side by its median
and inclusive quartiles, and `change_better_pairs` counts the seeds on which
the change read better, by the direction `BENCHMARK.json` gives the metric.

    python3 scripts/bench_ab.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --seconds 20 --out BENCH_22.json

Nothing under `bench/` is read from the working tree: each side runs the
benchmark of its own revision.  With `--tier1`, each pair also runs each
side's tier-1 tests, in the same order, and the file gains a `tier1` key:
the wall time pytest reports and each acceptance criterion's time, read
from the `criterion N/9 ...: PASS (x s)` lines that `-rP` prints.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = "# relfix benchmark: workload "
TIER1 = ["-m", "pytest", "-q", "-rP", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
CRITERION = re.compile(r"criterion (\d+)/\d+ .*: PASS \((\d+(?:\.\d+)?)s\)")
# pytest's last line, e.g. "1 failed, 469 passed in 150.20s (0:02:30)"
TIER1_SUMMARY = re.compile(r"=* ?(\d+ \w+(?:, \d+ \w+)*) in (\d+(?:\.\d+)?)s(?: \([\d:]+\))?(?: =*)?")


def summarize(raw_parent: list[float], raw_change: list[float], better: str) -> dict:
    """One metric over paired runs (index i of each list is seed i's pair):
    per side the median and the inclusive quartiles, and the number of pairs
    in which the change read better (`better` is "lower" or "higher")."""
    if len(raw_parent) != len(raw_change) or not raw_parent:
        raise ValueError("need the same positive number of runs on each side")

    def side(values):
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}

    sign = {"lower": -1, "higher": 1}[better]
    return {
        "change": side(raw_change),
        "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(raw_parent, raw_change)),
        "pairs": len(raw_parent),
        "parent": side(raw_parent),
        "raw_change": [round(v, 4) for v in raw_change],
        "raw_parent": [round(v, 4) for v in raw_parent],
    }


def parse_results(stdout: str) -> dict[str, dict]:
    """The JSON result line of each workload in a `bench/run.py` output, keyed
    by the workload named in the header line before it."""
    out, workload = {}, None
    for line in stdout.splitlines():
        if line.startswith(HEADER):
            workload = line[len(HEADER):].split(",")[0]
        elif line.startswith('{"correct"') and workload is not None:
            out[workload] = json.loads(line)
            workload = None
    return out


def parse_tier1(stdout: str) -> dict:
    """The outcome counts and seconds of a tier-1 run's summary line, and
    each acceptance criterion's seconds keyed by its number."""
    criteria, counts, seconds = {}, None, None
    for line in stdout.splitlines():
        if match := CRITERION.fullmatch(line):
            criteria[match[1]] = float(match[2])
        elif match := TIER1_SUMMARY.fullmatch(line):
            counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", match[1])}
            seconds = float(match[2])
    if counts is None:
        raise ValueError("no pytest summary line in the tier-1 output")
    return {"counts": counts, "criteria": criteria, "seconds": seconds}


def export(rev: str, dest: str) -> str:
    """The committed files of `rev`, unpacked into `dest`; returns the full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    blob = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)
    return sha


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict[str, dict]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=tree, env=env, capture_output=True, text=True)
    results = parse_results(proc.stdout)
    if not results:
        raise RuntimeError(f"no benchmark results in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    return results


def tier1_summary(tier1: dict[str, list[dict]]) -> dict:
    """Paired statistics of the tier-1 seconds and of each criterion that
    every run on both sides reported, plus each run's outcome counts."""
    runs = tier1["parent"] + tier1["change"]
    numbers = sorted(set.intersection(*[set(run["criteria"]) for run in runs]), key=int)
    return {
        "command": f"PYTHONPATH=src python {' '.join(TIER1)}",
        "counts": {side: [run["counts"] for run in tier1[side]] for side in tier1},
        "criteria": {n: summarize(*[[run["criteria"][n] for run in tier1[side]] for side in ("parent", "change")],
                                  "lower") for n in numbers},
        "seconds": summarize(*[[run["seconds"] for run in tier1[side]] for side in ("parent", "change")], "lower"),
    }


def run_tier1(tree: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    return parse_tier1(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the base revision")
    parser.add_argument("--change", required=True, help="the revision under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--note", default="", help="what the change does, for the file's `change` key")
    parser.add_argument("--out", help="write the JSON here instead of to stdout")
    parser.add_argument("--tier1", action="store_true",
                        help="also time each side's tier-1 tests once per pair")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        shas = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        seeds = list(range(1, args.pairs + 1))
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        tier1: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in seeds:
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                runs[side].append(run_side(trees[side], args.workload, seed, args.seconds))
                if args.tier1:
                    tier1[side].append(run_tier1(trees[side]))
                print(f"seed {seed}: {side} done", file=sys.stderr)

    workloads = {}
    for name in sorted(runs["parent"][0]):
        per_side = {side: [run[name] for run in runs[side]] for side in runs}
        workloads[name] = {
            "all_correct_zero_failed": all(r["correct"] and r["failed"] == 0
                                           for side in per_side.values() for r in side),
            "metrics": {
                metric: summarize([r["metrics"][metric]["value"] for r in per_side["parent"]],
                                  [r["metrics"][metric]["value"] for r in per_side["change"]],
                                  better[metric])
                for metric in sorted(per_side["parent"][0]["metrics"]) if metric in better
            },
        }
    doc = {
        "change": f"{shas['change'][:7]}: {args.note}" if args.note else shas["change"][:7],
        "command": f"python3 bench/run.py --workload {args.workload} --seed <seed> --seconds {args.seconds:g}",
        "machine": f"{os.cpu_count()}-core host, Python {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "pairs": f"{len(seeds)}, alternating: odd seeds ran the parent first, even seeds the change first",
        "parent": shas["parent"][:7],
        "seeds": seeds,
        "statistics": "per side, the median and quartiles (inclusive method) of the runs; change_better_pairs "
                      "counts the seeds on which the change read better; raw_parent and raw_change list each "
                      "run's value in seed order",
        "workloads": workloads,
    }
    if args.tier1:
        doc["tier1"] = tier1_summary(tier1)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
