"""Generated scenarios come back with their ground truth, at tiny sizes.

The benchmark's generators (``perfbench/scenarios.py``) draw point masses,
distinct atoms and random vectors together with the answer each must give,
and its checker (``perfbench/check.py``) compares a report with that answer.
Here both run on a few small ops through ``lapcov.cli.main``.
"""

import json
import sys
from pathlib import Path

import pytest

from test_cli import run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FAMILIES = ("nat_add", "nat_mult", "half_line")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import check
        import scenarios

        yield scenarios, check
    finally:
        sys.path.remove(str(PERFBENCH))


def _ops(scenarios, seed: int) -> list:
    gen = scenarios.Generator(seed)
    ops = []
    for family in FAMILIES:
        ops += [
            gen.measure_op("covariance", family, "point_mass", 1),
            gen.measure_op("recover", family, "point_mass", 64, poly=True),
            gen.measure_op("covariance", family, "point_mass", 64),
            gen.measure_op("covariance", family, "not_point_mass", 16, poly=True),
            gen.measure_op("recover", family, "not_point_mass", 16),
        ]
    ops += [gen.random_vector_op(256, 1, 2), gen.random_vector_op(256, 8, 1)]
    for op in ops:  # what scenarios.build adds to the ops of a pool: the half-line alias is a known defect
        half_line = op.scenario.get("semigroup", {}).get("kind") == "half_line" and "zeta" in op.expect
        op.expect["exit"] = 0
        op.expect["beyond_band"] = half_line and abs(op.expect["zeta"][0].imag) > scenarios.ALIAS_PERIOD / 2
    return ops


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_ops_come_back_with_their_ground_truth(tmp_path, bench, seed):
    scenarios, check = bench
    for i, op in enumerate(_ops(scenarios, seed)):
        path = tmp_path / f"op{i}.json"
        path.write_text(json.dumps(op.scenario))
        code, out, _ = run_cli([op.cmd, str(path)])
        problems, _ = check.check(op, code, out)
        assert not problems, f"{op.label}: {problems}"
