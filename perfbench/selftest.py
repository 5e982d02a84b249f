#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

1. Every workload runs for one second with ``--trace 0`` and ``--trace 1``;
   the result line must have exactly the keys ``correct``, ``attempted``,
   ``failed`` and ``metrics``, be correct, and carry every ``end_to_end``
   (trace 0) or ``per_layer`` (trace 1) metric of BENCHMARK.json with its
   unit and no other metric.
2. The checker must accept real reports and reject tampered ones: a flipped
   verdict, a perturbed c, zeta or phase, a wrong exit code, an error
   report, a flipped Luecking flag and a perturbed transform value.
3. Tracing must refuse a binding site that no longer exists.
4. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark must exit non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import check as checker
import run
import scenarios
from layers import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _result(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    lines = proc.stdout.splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def check_schema(benchmark: dict) -> list:
    errors = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = _result(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                errors.append(f"{where}: exit {proc.returncode}, no result line: {proc.stderr[-300:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
            expected = {m["name"]: m["unit"] for m in benchmark[section]}
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if got != expected:
                errors.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
            for name, metric in result["metrics"].items():
                if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
                    errors.append(f"{where}: malformed metric {name}: {metric}")
            print(f"schema ok: {where}" if not errors else f"schema checked: {where}")
    return errors


def _tamper(report: dict, path, value):
    tampered = json.loads(json.dumps(report))
    target = tampered
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return json.dumps(tampered)


def check_tamper() -> list:
    gen = scenarios.Generator(11)
    ops = {
        "covariance": gen.measure_op("covariance", "nat_add", "point_mass", 3, order=2),
        "recover": gen.measure_op("recover", "nat_mult", "point_mass", 1, order=2),
        "toeplitz": gen.measure_op("toeplitz", "nat_add", "not_point_mass", 2),
        "transform": gen.measure_op("transform", "half_line", "not_point_mass", 2, order=3),
        "kernel": gen.kernel_op(),
    }
    out = HERE / "out" / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    runner = run.InProcess()
    reports = {}
    errors = []
    try:
        for name, op in ops.items():
            op.expect.update(exit=0, half_line_zeta=False, beyond_band=False)
            op.path = str(out / f"{name}.json")
            Path(op.path).write_text(json.dumps(op.scenario), encoding="utf-8")
            code, text, _ = runner.run(op)
            problems, _ = checker.check(op, code, text)
            if problems:
                errors.append(f"untampered {name} report rejected: {problems}")
            reports[name] = json.loads(text)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    flip = {"point_mass": "not_point_mass"}
    cases = [
        ("covariance", "flipped verdict", 0, _tamper(reports["covariance"], ["verdict"], flip.get)),
        ("covariance", "perturbed c", 0, _tamper(reports["covariance"], ["c", 0], lambda v: v * (1 + 1e-6))),
        ("recover", "perturbed zeta", 0, _tamper(reports["recover"], ["zeta", 0, 1], lambda v: v + 1e-5)),
        ("recover", "wrong exit code", 2, json.dumps(reports["recover"])),
        ("recover", "error report", 0, json.dumps({"error": {"code": "internal_error", "message": "x"}})),
        ("toeplitz", "flipped luecking_agree", 0, _tamper(reports["toeplitz"], ["per_element", 1, "luecking_agree"], False)),
        ("transform", "perturbed value", 0, _tamper(reports["transform"], ["values", 0, "v", 0], lambda v: v + 1e-6)),
        ("kernel", "perturbed phase", 0, _tamper(reports["kernel"], ["phase"], lambda v: v + 1e-4)),
    ]
    for name, what, code, text in cases:
        problems, _ = checker.check(ops[name], code, text)
        if problems:
            print(f"tamper rejected: {name} {what}: {problems[0]}")
        else:
            errors.append(f"tampered {name} report ({what}) was accepted")
    return errors


def check_missing_site() -> list:
    """A binding site that is gone must stop the traced run, not read zero."""
    run.InProcess()  # puts src/ first on sys.path
    import lapcov.cli

    original = lapcov.cli.dumps
    load = lapcov.cli.load_scenario
    del lapcov.cli.dumps
    try:
        Tracer().install()
    except LookupError as exc:
        if lapcov.cli.load_scenario is not load:
            return ["a failed install left other binding sites wrapped"]
        print(f"missing binding site rejected: {exc}")
        return []
    finally:
        lapcov.cli.dumps = original
    return ["Tracer.install accepted a missing binding site"]


def check_bare_directory(benchmark: dict) -> list:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in benchmark["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc, result = _result(benchmark["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result is not None:
        return [f"without sources the benchmark exited {proc.returncode} with result {result}"]
    print(f"bare directory: exit {proc.returncode}, no result")
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    errors = check_tamper() + check_missing_site() + check_bare_directory(benchmark) + check_schema(benchmark)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
