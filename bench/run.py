#!/usr/bin/env python3
"""The relfix benchmark: closed-loop workloads with one client.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all     # every workload, one process each

Workloads (see `workloads.py`): `sweep`, `wide`, `deep` and `cli`.  Each run
is one fresh process that sends one operation at a time, in passes over a
fixed, seeded list of operations.  An untimed first pass checks the results
and lets lazy caches fill; timed passes follow until `--seconds` have gone
by, and the first of them always completes.  `cli` runs each operation as
its own `relfix` child process, one at a time.

An operation's latency is the median of its timed repetitions, each scaled
as described below.  The end-to-end metrics are taken over these
per-operation latencies, so they do not depend on how many passes fit into
the time.

Times are reported at a reference machine speed.  On a shared machine the
same code runs up to 1.8 times slower at times, in stretches from a tenth
of a second to minutes, which no statistic over one run can remove.  So
every 0.1 s between operations (and between set-up processes) the run
times a fixed pure-Python calibration probe that does not touch relfix,
and scales each operation's time by CALIBRATION_REF_S / (the mean time
of the probes just before and just after it).  A change in relfix's own speed moves the scaled figures
as it moves the raw ones; the raw figures and the mean scale are printed
above the result line:

    setup_s      median wall time of fresh processes that import relfix and
                 build the inputs
    ops_per_s    operations / sum of their latencies
    op_p50_ms    median latency
    op_tail_ms   the highest of p99.9, p99, p95, p90, p75 and p50 with at
                 least ten operations beyond it
    peak_rss_mb  peak resident memory of this process up to the end of the
                 untimed first pass, or of the largest child process on `cli`

With `--trace 1` the run instead reports per-layer metrics (calls, self time
and counts per relfix function), writes the spans to
`.bench_out/trace-<workload>-seed<seed>.json`, and reports the tracing
overhead: the first third of the time runs untraced, the rest traced.

Every result is checked.  Operations are recomputed independently on a
stride, later passes must repeat the first pass's results, and on the
default seed the results must match the digests frozen in `digests.json`.
Refusals that a budget or bound calls for are results like any other.  The
last line of stdout is a JSON object; the exit code is 1 if any check
failed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
CHECK_STRIDE = 10  # independent recomputation of every tenth operation
SMALL_FAMILY = 100  # families this small are checked in full
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PROBE_EVERY_S = 0.1
CALIBRATION_SEED = 7
# the calibration probe's typical time between operations on a 2-core x86-64
# sandbox running Python 3.11, where the first baseline was taken
CALIBRATION_REF_S = 1.2e-3
WORKLOADS = ("sweep", "wide", "deep", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def wait_child(proc) -> int:
    """Reap a child and return its peak resident memory in KiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


class _ProbeOp:
    """A successor map on six bits with a memo, like relfix's MonotoneOp."""

    __slots__ = ("succ", "memo")

    def __init__(self, succ):
        self.succ = succ
        self.memo = {}

    def post(self, mask: int) -> int:
        hit = self.memo.get(mask)
        if hit is not None:
            return hit
        out = 0
        for i, m in enumerate(self.succ):
            if mask >> i & 1:
                out |= m
        self.memo[mask] = out
        return out


def _probe_inputs():
    rng = random.Random(CALIBRATION_SEED)
    machines = []
    for _ in range(12):
        states = tuple(f"q{i}" for i in range(rng.randint(2, 4)))
        machines.append((states, {x: tuple(rng.choice(states) for _ in range(rng.randint(0, 2))) for x in states}))
    return machines, [[rng.getrandbits(6) for _ in range(6)] for _ in range(8)]


_PROBE_MACHINES, _PROBE_SUCC = _probe_inputs()


def _probe_work() -> int:
    """Next-time fixed sets of tiny machines by filtering every subset, and
    least closures of six-bit masks: the frozenset, dict and small-integer
    work of relfix's kernels, without relfix."""
    found = 0
    for states, children in _PROBE_MACHINES:
        n = len(states)
        for bits in range(1 << n):
            u = frozenset(states[i] for i in range(n) if bits >> i & 1)
            if frozenset(x for x in states if all(y in u for y in children[x])) == u:
                found += 1
    for succ in _PROBE_SUCC:
        op = _ProbeOp(succ)
        for mask in range(64):
            while True:
                nxt = mask | op.post(mask)
                if nxt == mask:
                    break
                mask = nxt
            found += mask
    return found


def calibration_probe() -> float:
    """Time of one run of `_probe_work`, after an untimed run that brings
    its code and data back into the caches the last operation evicted."""
    _probe_work()
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


def result_digest(result) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class CliRunner:
    """Runs CLI operations as child processes, or in-process when traced."""

    def __init__(self, workdir: str):
        self.stderr_path = os.path.join(workdir, "stderr.txt")
        self.peak_rss_kb = 0
        self.in_process = False

    def __call__(self, op):
        if self.in_process:
            from relfix import cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(op.argv)
                except SystemExit as exc:
                    code = exc.code
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            with open(self.stderr_path, "w+b") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "relfix", *op.argv],
                    stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT,
                )
                with proc.stdout:
                    stdout = proc.stdout.read().decode("utf-8")
                self.peak_rss_kb = max(self.peak_rss_kb, wait_child(proc))
                code = proc.returncode
                err.seek(0)
                stderr = err.read().decode("utf-8", "replace")
        if "Traceback" in stderr:
            raise RuntimeError(f"relfix {' '.join(op.argv)} crashed:\n{stderr}")
        result = [code, stdout]
        if op.output:
            with open(op.output, "rb") as fh:
                result.append(hashlib.sha256(fh.read()).hexdigest())
        return result


class Session:
    """Latencies, first-pass digests and failures of one run."""

    def __init__(self, ops, execute):
        self.ops = ops
        self.execute = execute
        self.tracer = None  # set for the traced phase
        self.digests: list[str | None] = [None] * len(ops)
        self.family_size = defaultdict(int)
        for op in ops:
            self.family_size[op.family] += 1
        self.family_hash = {f: hashlib.sha256() for f in self.family_size}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sierpinski_renders: list[float] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def warm_up(self) -> None:
        """One untimed pass: fills lazy caches and checks the results.

        Then everything alive is moved out of the collector's reach, so that
        collections during timed passes scan what the operations allocate,
        not the benchmark's own inputs and digests.
        """
        for i, op in enumerate(self.ops):
            self._one(i, op, [])
        gc.collect()
        gc.freeze()

    def phase(self, seconds: float):
        """Timed passes until `seconds` have gone by; the first always
        completes.  Returns each operation's latencies, raw and scaled to
        the reference speed by the mean of the calibration probes taken
        just before and just after it."""
        times: list[list[float]] = [[] for _ in self.ops]
        scaled: list[list[float]] = [[] for _ in self.ops]
        pending: list[int] = []  # operations run since the last probe
        last_probe = None

        def probe():
            nonlocal last_probe
            t = calibration_probe()
            scale = 2 * CALIBRATION_REF_S / (t + (last_probe or t))
            for i in pending:
                scaled[i].append(times[i][-1] * scale)
            pending.clear()
            last_probe = t

        deadline = time.perf_counter() + seconds
        next_probe = 0.0
        first = True
        while True:
            for i, op in enumerate(self.ops):
                now = time.perf_counter()
                if not first and now >= deadline:
                    probe()
                    return times, scaled
                if now >= next_probe:
                    probe()
                    next_probe = now + PROBE_EVERY_S
                self._one(i, op, times[i])
                pending.append(i)
            first = False

    def _one(self, i, op, times) -> None:
        self.attempted += 1
        tracer = self.tracer
        renders = tracer.calls["fractal.render"] if tracer else 0
        start = time.perf_counter()
        try:
            result = tracer.run_op(op, self.execute) if tracer else self.execute(op)
        except Exception:
            times.append(time.perf_counter() - start)
            self.fail(f"{op.family}/{op.label}: {traceback.format_exc()}")
            return
        times.append(time.perf_counter() - start)
        if tracer and op.argv and op.argv[0] == "sierpinski":
            self.sierpinski_renders.append(tracer.calls["fractal.render"] - renders)
        digest = result_digest(result)
        if self.digests[i] is None:
            self.digests[i] = digest
            self.family_hash[op.family].update(f"{op.label}\0{digest}\n".encode("utf-8"))
            checked = self.family_size[op.family] <= SMALL_FAMILY or i % CHECK_STRIDE == 0
            if checked and op.check is not None and not self._check(op, result):
                self.fail(f"{op.family}/{op.label}: independent check failed: {str(result)[:300]}")
        elif digest != self.digests[i]:
            self.fail(f"{op.family}/{op.label}: result differs from the first pass")

    @staticmethod
    def _check(op, result) -> bool:
        try:
            return bool(op.check(result))
        except Exception:  # a result the check cannot even read is wrong
            traceback.print_exc()
            return False

    def compare_frozen(self, workload: str) -> None:
        with open(DIGESTS, encoding="utf-8") as fh:
            frozen = json.load(fh).get(workload, {})
        for family, h in self.family_hash.items():
            want = frozen.get(family)
            if want is None:
                self.fail(f"{family}: no frozen digest for the default seed")
            elif h.hexdigest() != want:
                self.fail(f"{family}: results differ from the frozen digest", self.family_size[family])

    def write_frozen(self, workload: str) -> None:
        frozen = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                frozen = json.load(fh)
        frozen[workload] = {f: h.hexdigest() for f, h in sorted(self.family_hash.items())}
        frozen["seed"] = DEFAULT_SEED
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(frozen, fh, indent=2, sort_keys=True)
            fh.write("\n")


def latency_summary(times: list[list[float]], scaled: list[list[float]]) -> dict:
    raw = [statistics.median(t) for t in times if t]
    latencies = sorted(statistics.median(t) for t in scaled if t)
    m = len(latencies)
    pct = next((p for p in TAIL_PERCENTILES if m * (100 - p) / 100 >= 10), 50.0)
    rank = max(1, math.ceil(pct / 100 * m))
    return {
        "ops": m,
        "ops_per_s": m / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": latencies[rank - 1] * 1e3,
        "tail_pct": pct,
        "tail_beyond": m - rank,
        "scale": sum(latencies) / sum(raw),
        "raw_ops_per_s": m / sum(raw),
    }


def timed_child(argv: list[str]) -> float:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    wait_child(proc)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of fresh processes that import relfix and build the
    inputs of this workload, then stop: raw, and scaled to the reference
    speed by calibration probes timed just before and after each process."""
    raw, scaled = [], []
    for k in range(SETUP_REPEATS):
        before = statistics.median(calibration_probe() for _ in range(3))
        workdir = os.path.join(OUT_DIR, f"setup-{workload}-{k}")
        raw.append(timed_child([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                                "--seed", str(seed), "--setup-only", workdir]))
        after = statistics.median(calibration_probe() for _ in range(3))
        scaled.append(raw[-1] * 2 * CALIBRATION_REF_S / (before + after))
        shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(raw), statistics.median(scaled)


def measure_import_ms() -> float:
    """Median start-up of `import relfix.cli` minus that of a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(timed_child([sys.executable, "-c", "pass"]))
        full.append(timed_child([sys.executable, "-c", "import relfix.cli"]))
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def layer_metrics(tracer, session, workload) -> dict:
    from relfix import sigterm
    from tracer import TARGETS

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in dict.fromkeys(t[2] for t in TARGETS):
        put(name + ".calls", tracer.calls[name], "count")
        put(name + ".self_s", tracer.self_s[name], "s")
    c = tracer.counts
    put("lattice.safety_check.stages", c["lattice.safety_check.stages"], "count")
    for name in ("lattice.mu_post_mask", "lattice.nu_pre_mask"):
        calls = tracer.calls[name]
        put(name + ".repeat_ratio", c[name + ".repeats"] / calls if calls else 0.0, "ratio")
    put("lattice.apply_mask.calls", tracer.calls["lattice.apply_mask"], "count")
    put("lattice.apply_mask.bits", c["lattice.apply_mask.bits"], "count")
    for family, key in (("cc_forward", "forward_s"), ("cc_reversed", "reversed_s")):
        put(f"sigterm.CongruenceClosure.{key}", tracer.family_self_s[("sigterm.CongruenceClosure", family)], "s")
    put("sigterm.term_store_size", sigterm.term_store_size(), "count")
    for key in ("solutions", "refused"):
        put(f"finstruct.enumerate_hylo.{key}", c[f"finstruct.enumerate_hylo.{key}"], "count")
    put("finstruct.enumerate_hylo.refused_s", c["finstruct.enumerate_hylo.refused_s"], "s")
    put("nu.cartesian_subcoalgebras.fixed_points", c["nu.cartesian_subcoalgebras.fixed_points"], "count")
    put("nu.enum_nu_prefixes.prefixes", c["nu.enum_nu_prefixes.prefixes"], "count")
    put("nu.enum_nu_prefixes.refused", c["nu.enum_nu_prefixes.refused"], "count")
    put("fractal.render.pixels", c["fractal.render.pixels"], "count")
    renders = session.sierpinski_renders
    put("fractal.render.calls_per_sierpinski", statistics.mean(renders) if renders else 0.0, "count")
    put("jsonio.canonical_dumps.bytes", c["jsonio.canonical_dumps.bytes"], "count")
    put("cli.import_ms", measure_import_ms() if workload == "cli" else 0.0, "ms")
    return metrics


def family_rows(ops, times) -> list[str]:
    """Raw latency per operation family, and per operation when few."""
    by_family = defaultdict(list)
    for op, t in zip(ops, times):
        if t:
            by_family[op.family].append((op.label, statistics.median(t)))
    rows = []
    for family, entries in by_family.items():
        latencies = [t for _, t in entries]
        rows.append(f"  {family:<16} {len(entries):>6} ops  median {statistics.median(latencies) * 1e3:10.3f} ms"
                    f"  sum {sum(latencies):8.3f} s")
        if len(entries) <= 20:
            for label, t in entries:
                rows.append(f"    {family}/{label:<28} {t * 1e3:10.3f} ms")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description="Run relfix benchmark workloads.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    parser.add_argument("--write-digests", action="store_true",
                        help="freeze this run's result digests (default seed only)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "relfix", "__init__.py")):
        print(f"error: no relfix sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = []
        for workload in WORKLOADS:
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            codes.append(subprocess.run(argv + (["--write-digests"] if args.write_digests else [])).returncode)
        return max(codes)
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import workloads

    if args.setup_only:
        workloads.BUILDERS[args.workload](args.seed, args.setup_only)
        sys.stdout.flush()
        os._exit(0)

    setup = None if args.trace else measure_setup(args.workload, args.seed)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}")
    ops = workloads.BUILDERS[args.workload](args.seed, workdir)
    cli_runner = CliRunner(workdir) if args.workload == "cli" else None

    def execute(op):
        return cli_runner(op) if op.argv else op.call()

    if cli_runner and args.trace:
        cli_runner.in_process = True
    session = Session(ops, execute)
    session.warm_up()
    # timed passes repeat the first pass's work; the memory they add is the
    # allocator's and grows with the number of passes, i.e. the machine's speed
    first_pass_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer = None
    if args.trace:
        from tracer import Tracer

        plain = latency_summary(*session.phase(args.seconds / 3))
        tracer = Tracer(extra_modules=(workloads,))
        tracer.install()
        session.tracer = tracer
        try:
            times, scaled = session.phase(args.seconds * 2 / 3)
        finally:
            tracer.uninstall()
        traced = latency_summary(times, scaled)
    else:
        times, scaled = session.phase(args.seconds)
        summary = latency_summary(times, scaled)

    if args.seed == DEFAULT_SEED:
        if args.write_digests:
            session.write_frozen(args.workload)
        session.compare_frozen(args.workload)
    shutil.rmtree(workdir, ignore_errors=True)

    correct = session.failed == 0
    for problem in session.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# relfix benchmark: workload {args.workload}, seed {args.seed}, "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    print(f"# {session.attempted} operations attempted, {session.failed} failed")
    if args.trace:
        metrics = layer_metrics(tracer, session, args.workload)
        metrics.update({
            "trace.untraced_ops_per_s": {"value": plain["ops_per_s"], "unit": "1/s"},
            "trace.traced_ops_per_s": {"value": traced["ops_per_s"], "unit": "1/s"},
            "trace.overhead": {"value": plain["ops_per_s"] / traced["ops_per_s"], "unit": "ratio"},
            "trace.spans": {"value": len(tracer.spans) + tracer.dropped, "unit": "count"},
        })
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed})
        print(f"# spans written to {trace_path}")
        print("# traced latency by operation family:")
        for row in family_rows(ops, times):
            print(row)
        for name, m in metrics.items():
            print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    else:
        peak_kb = cli_runner.peak_rss_kb if cli_runner else first_pass_rss_kb
        setup_raw, setup_scaled = setup
        metrics = {
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "ops_per_s": {"value": summary["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": summary["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": summary["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
        for name, m in metrics.items():
            note = ""
            if name == "op_tail_ms":
                note = f"  (p{summary['tail_pct']:g} of {summary['ops']} operations, {summary['tail_beyond']} beyond)"
            print(f"{name:<12} {m['value']:>14.6g} {m['unit']}{note}")
        print(f"{'fail_ratio':<12} {session.failed / session.attempted:>14.6g} "
              f"({session.failed} of {session.attempted})")
        print(f"# raw: setup_s {setup_raw:.6g} s at scale {setup_scaled / setup_raw:.4f}; ops_per_s "
              f"{summary['raw_ops_per_s']:.6g} 1/s at scale {summary['scale']:.4f}")
    print(json.dumps({"correct": correct, "attempted": session.attempted, "failed": session.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
