#!/usr/bin/env python3
"""lapcov benchmark: closed-loop workloads, ground-truth checks, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload dense_atoms --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client runs the workload's op pool (``scenarios.build``) in a closed
loop: the next op starts when the previous one has returned.  In-process
workloads call ``lapcov.cli.main``; ``cold_cli`` starts a fresh
``python -m lapcov.cli`` per op.  Every op's report is checked against the
generator's ground truth (``check.py``), and every repeat of an op must give
the same bytes.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it runs each op untraced and then traced and prints the
per-layer metrics (``layers.py``).  Human-readable lines start with ``#``;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import check as checker
import scenarios
from layers import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9          # fresh processes per run, spread over the loop; setup_s is their median
IMPORTTIME_REPEATS = 3     # -X importtime probes per traced run
OP_TIMEOUT = 60.0          # seconds, for one subprocess

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    record = {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu, "seed": args.seed}
    for package in ("numpy", "scipy"):
        try:
            record[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            record[package] = None
    return record


def _digest(code, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode("utf-8")).hexdigest()


class InProcess:
    """Calls lapcov.cli.main in this process, with report and summary captured."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import lapcov.cli

        if not Path(lapcov.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"lapcov was imported from {lapcov.cli.__file__}, not from {SRC}")
        self.cli = lapcov.cli

    def run(self, op, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        argv = [op.cmd, op.path]
        if tracer is None:
            start = time.perf_counter()
            code = self.cli.main(argv, stdout=out, stderr=err)
            return code, out.getvalue(), time.perf_counter() - start
        tracer.install()  # only for this op, so untraced ops run unwrapped
        try:
            start = time.perf_counter()
            with tracer.span("cli"):
                code = self.cli.main(argv, stdout=out, stderr=err)
            elapsed = time.perf_counter() - start
        finally:
            tracer.uninstall()
        return code, out.getvalue(), elapsed

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Cold:
    """Starts one fresh interpreter per op, as a shell user would."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.env = _env()
        self.traced = 0

    def run(self, op, tracer=None):
        argv = [op.cmd, op.path]
        if tracer is None:
            command = [sys.executable, "-m", "lapcov.cli", *argv]
        else:
            self.traced += 1
            spans_path = self.run_dir / f"spans-{self.traced}.json"
            command = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=OP_TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return None, "", time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if tracer is not None and spans_path.exists():
            tracer.merge(json.loads(spans_path.read_text(encoding="utf-8")), tracer.op)
            spans_path.unlink()
        return proc.returncode, proc.stdout, elapsed

    @staticmethod
    def peak_rss_mb() -> float:
        # the largest lapcov process this run started
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Loop:
    """Runs ops, checks every report, and keeps the tallies."""

    def __init__(self, runner, ops):
        self.runner = runner
        self.ops = ops
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.aliased = set()
        self.latency = defaultdict(list)          # op index -> untraced latencies, seconds
        self.traced_latency = defaultdict(list)   # op index -> traced latencies, seconds
        self.setup = []                           # set-up probe times, seconds

    def run(self, index: int, tracer=None):
        op = self.ops[index]
        code, text, elapsed = self.runner.run(op, tracer)
        self.verify(index, code, text)
        return elapsed

    def verify(self, index: int, code, text: str):
        op = self.ops[index]
        self.attempted += 1
        digest = _digest(code, text)
        if index in self.digests:
            problems = [] if digest == self.digests[index] else ["output bytes differ from the first run"]
        else:
            self.digests[index] = digest
            problems, notes = checker.check(op, code, text)
            if "aliased" in notes:
                self.aliased.add(index)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.label}: {'; '.join(problems[:3])}")

    def closed_loop(self, seconds: float, tracer=None, probe=None):
        """Whole passes over the pool until ``seconds`` of loop time have passed.

        Op costs differ by two orders of magnitude, so a pass cut short would
        make the mix, and with it every metric, depend on where the cut fell.
        ``probe`` (a set-up measurement, in seconds) runs SETUP_REPEATS times
        between ops, spread evenly over the loop, so that set-up time samples
        the machine in the same state as the ops; its time is not loop time.
        """
        start = time.perf_counter()
        paused = 0.0
        probes = SETUP_REPEATS if probe else 0

        def run_probe():
            nonlocal paused
            begin = time.perf_counter()
            self.setup.append(probe())
            paused += time.perf_counter() - begin

        while True:
            for index, op in enumerate(self.ops):
                if len(self.setup) < probes and time.perf_counter() - start - paused >= len(self.setup) * seconds / probes:
                    run_probe()
                self.latency[index].append(self.run(index))
                if tracer is not None:
                    tracer.op, tracer.cmd = (index, len(self.latency[index])), op.cmd
                    self.traced_latency[index].append(self.run(index, tracer))
            if time.perf_counter() - start - paused >= seconds:
                break
        while len(self.setup) < probes:
            run_probe()

    def rerun_sample(self, seed: int):
        """Re-run one op chosen by the seed; its bytes must match the first run."""
        index = random.Random(seed).choice(sorted(self.digests))
        self.run(index)

    def alias_counts(self):
        """(answers beyond the alias band, aliased answers, half-line zeta answers) over ops run."""
        half_line = [self.ops[i] for i in self.digests if self.ops[i].expect["half_line_zeta"]]
        return sum(op.expect["beyond_band"] for op in half_line), len(self.aliased), len(half_line)


def setup_probe(workload: str, ops, loop: Loop):
    """A fresh process that imports lapcov.cli (and, in-process workloads, runs the first op).

    Returns a function that starts one such process and returns its wall time
    in seconds.
    """
    env = _env()
    if workload == "cold_cli":
        command = [sys.executable, "-c", "import lapcov.cli"]
    else:
        op = ops[0]
        code = "import sys, lapcov.cli; sys.exit(lapcov.cli.main(sys.argv[1:]))"
        command = [sys.executable, "-c", code, op.cmd, op.path]

    def probe() -> float:
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, env=env, cwd=ROOT, timeout=OP_TIMEOUT)
        elapsed = time.perf_counter() - start
        if workload == "cold_cli":
            if proc.returncode != 0:
                raise SystemExit(f"import lapcov.cli failed: {proc.stderr.strip()}")
        else:
            loop.verify(0, proc.returncode, proc.stdout)
        return elapsed

    return probe


def import_ms(modules) -> dict:
    """Cumulative -X importtime of each module (median over probes), in ms."""
    samples = {m: [] for m in modules}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lapcov.cli"],
            capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=OP_TIMEOUT,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1000.0)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def best_of(latency: dict) -> list:
    """Each op's fastest run.

    A shared machine's speed can drift by up to 1.7x for seconds at a time
    (measured on a 2-core Xeon VM), so the benchmark reports the best of an
    op's runs within one run, which tracks the program rather than its
    neighbours.  On the same runs of that VM, pool size over the summed best
    runs spread 0.04-0.06 (IQR/median over six seeds) where the mean over
    all runs spread 0.15, more than half the metrics' bound.
    """
    return [min(samples) for _, samples in sorted(latency.items())]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(args) -> dict:
    ops = scenarios.build(args.workload, args.seed)
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        for i, op in enumerate(ops):
            op.path = str(run_dir / f"op{i:03d}.json")
            with open(op.path, "w", encoding="utf-8") as handle:
                json.dump(op.scenario, handle)
        runner = Cold(run_dir) if args.workload == "cold_cli" else InProcess()
        loop = Loop(runner, ops)
        probe = tracer = None
        if args.trace:
            imports = import_ms(("lapcov.cli", "lapcov.toeplitz"))
            tracer = Tracer()
            sys.path.insert(0, str(SRC))
            tracer.install()  # fails here if a binding site is gone
            tracer.uninstall()
        else:
            probe = setup_probe(args.workload, ops, loop)
            probe()  # the first start fills the bytecode and file caches; not counted
        if args.workload != "cold_cli":
            loop.run(0)  # warm-up, untimed
        loop.closed_loop(args.seconds, tracer, probe)
        loop.rerun_sample(args.seed)
        peak_rss = runner.peak_rss_mb()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    beyond, aliased, half_line = loop.alias_counts()
    best = best_of(loop.latency)
    p90 = percentile(best, 90)
    runs = sum(map(len, loop.latency.values()))
    timed = sum(map(sum, loop.latency.values()))
    print(
        f"# timed: {runs} runs of {len(best)} pool ops ({runs / len(best):.1f} each); latency samples are each "
        f"op's best run, {len(best)} samples, {sum(t > p90 for t in best)} beyond p90"
    )
    print(f"# all-runs throughput (runs / their summed time, not a metric): {runs / timed:.4g} ops/s")
    print(f"# failed: {loop.failed} of {loop.attempted} attempted (failed_frac {loop.failed / loop.attempted:.4g})")
    print(
        f"# half-line zeta answers: {half_line}; beyond the alias band (expected aliased): {beyond}; "
        f"aliased with zeta_resolved true: {aliased}"
    )
    for line in loop.problems:
        print(f"# FAIL {line}")

    if args.trace:
        traced = sum(map(len, loop.traced_latency.values()))
        metrics = layer_metrics(tracer, traced)
        metrics["cli.import_ms"] = imports["lapcov.cli"]
        metrics["toeplitz.import_ms"] = imports["lapcov.toeplitz"]
        traced_time = sum(map(sum, loop.traced_latency.values()))
        metrics["trace.overhead_frac"] = 1.0 - sum(best) / sum(best_of(loop.traced_latency))
        metrics["trace.coverage_frac"] = tracer.covered / traced_time
        metrics["laplace.zeta_aliased_frac"] = aliased / half_line if half_line else 0.0
        write_spans(args, tracer, traced)
    else:
        print(f"# setup: {len(loop.setup)} fresh processes spread over the loop, median {statistics.median(loop.setup):.4f} s")
        metrics = {
            "ops_per_s": len(best) / sum(best),
            "op_p50_ms": 1e3 * statistics.median(best),
            "op_p90_ms": 1e3 * p90,
            "verified_frac": (loop.attempted - loop.failed) / loop.attempted,
            "setup_s": statistics.median(loop.setup),
            "peak_rss_mb": peak_rss,
        }
    units = args.units
    for name, value in metrics.items():
        print(f"# {name:40s} {value:14.6g} {units[name]}")
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def write_spans(args, tracer: Tracer, traced: int):
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    data = tracer.export()
    data["traced_ops"] = traced
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    print(f"# spans: {len(tracer.spans)} kept, {tracer.dropped} dropped, written to {path.relative_to(ROOT)}")


def run_all(args) -> dict:
    """Every workload in its own process; metrics are prefixed with the workload name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in scenarios.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print(f"# == {workload} ==")
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def _load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lapcov" / "cli.py").is_file():
        print(f"error: no lapcov sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    benchmark = _load_benchmark()
    args.units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    print(f"# lapcov benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env: {json.dumps(environment(args))}")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
