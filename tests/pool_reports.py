#!/usr/bin/env python3
"""Three digests per benchmark pool: every report the in-process workloads produce, as JSON, as text and with flags.

Usage:
    python tests/pool_reports.py                # print the digests
    python tests/pool_reports.py > pools.txt    # keep them
    python tests/pool_reports.py --check pools.txt   # exit 1 on any difference

The dense_atoms, fine_grid and toeplitz_route op pools of
``perfbench/scenarios.py`` are built for seeds 1, 7 and 9001, and each op runs
through ``lapcov.cli.main`` in this process three times: with ``--format
json``, with ``--format text``, and as JSON with the fixed flags of ``FLAGS``
for its command, so the flag overlay is covered too.  The printed line for a
pool and pass is the SHA-256 over the exit code, stdout and stderr of its ops
in pool order, so a change that must leave every report byte-identical (a
faster emitter, a refactor) can be checked against the digests printed on the
parent commit.  A full run takes ~10-30 s, so it is not part of the test
suite.
"""

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files in the benchmark's directory

import scenarios  # noqa: E402

from lapcov.cli import main as cli_main  # noqa: E402

WORKLOADS = ("dense_atoms", "fine_grid", "toeplitz_route")
SEEDS = (1, 7, 9001)
TOLERANCE_FLAGS = ["--tol-res", "1e-7", "--tol-mass", "1e-9", "--rank-tol", "1e-9"]
# valid, non-default values of the flags each command takes; kernel gets no --grid-order,
# since older checkouts ran its moment route on the default grid whatever the flag said
FLAGS = {
    "transform": ["--grid-order", "3"],
    "pd": ["--grid-order", "3"],
    "covariance": ["--grid-order", "3"] + TOLERANCE_FLAGS,
    "recover": ["--grid-order", "3"] + TOLERANCE_FLAGS,
    "toeplitz": ["--grid-order", "2", "--matrix-order", "5"] + TOLERANCE_FLAGS,
    "prony": ["--grid-order", "2", "--k-max", "4"] + TOLERANCE_FLAGS,
    "random-vector": TOLERANCE_FLAGS,
    "kernel": TOLERANCE_FLAGS,
}
PASSES = ("json", "text", "flags")


def pass_argv(name: str, cmd: str) -> list:
    """The argv tail of pass ``name`` for an op of command ``cmd``."""
    return ["--format", "json"] + FLAGS[cmd] if name == "flags" else ["--format", name]


def pool_digests(workload: str, seed: int, directory: str):
    """({pass: SHA-256 hex digest}, number of ops) over the outputs of one pool."""
    digests = {name: hashlib.sha256() for name in PASSES}
    ops = scenarios.build(workload, seed)
    for i, op in enumerate(ops):
        path = os.path.join(directory, f"op{i:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(op.scenario, handle)
        for name, digest in digests.items():
            out, err = io.StringIO(), io.StringIO()
            code = cli_main([op.cmd, path] + pass_argv(name, op.cmd), stdout=out, stderr=err)
            digest.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode("utf-8") + b"\n")
    return {name: digest.hexdigest() for name, digest in digests.items()}, len(ops)


def lines() -> list:
    result = []
    with tempfile.TemporaryDirectory() as directory:
        for workload in WORKLOADS:
            for seed in SEEDS:
                digests, count = pool_digests(workload, seed, directory)
                result += [f"{workload} {seed} {name} {digest} {count}" for name, digest in digests.items()]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="compare with digests printed earlier; exit 1 on any difference")
    args = parser.parse_args(argv)
    current = lines()
    if args.check is None:
        print("\n".join(current))
        return 0
    with open(args.check, encoding="utf-8") as handle:
        expected = [line.strip() for line in handle if line.strip()]
    for line in current:
        print(("same    " if line in expected else "CHANGED ") + line)
    for line in expected:
        if line not in current:
            print("missing " + line)
    return 0 if current == expected else 1


if __name__ == "__main__":
    sys.exit(main())
