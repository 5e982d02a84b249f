"""The golden tooling: ``update_goldens.py --check`` reports drift and writes nothing."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import update_goldens
from test_cli import GOLDEN, GOLDEN_CASES

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "update_goldens.py")


def golden_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


def test_check_passes_on_the_committed_goldens():
    before = golden_bytes(GOLDEN)
    src = os.path.join(os.path.dirname(os.path.dirname(SCRIPT)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, SCRIPT, "--check"], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == len(GOLDEN_CASES)
    assert all(": unchanged, max abs drift 0, max rel drift 0" in line for line in lines)
    assert golden_bytes(GOLDEN) == before


def test_check_runs_without_pythonpath(tmp_path):
    # the documented command works from a bare checkout: the script finds src/ itself
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, SCRIPT, "--check"], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert len(result.stdout.splitlines()) == len(GOLDEN_CASES)


def test_check_reports_drift_and_fails(tmp_path, capsys):
    shutil.copytree(GOLDEN, tmp_path, dirs_exist_ok=True)
    pd_path = tmp_path / "two_atoms_natadd1__pd.json"
    pd_path.write_text(pd_path.read_text().replace('"bv_norm": 1', '"bv_norm": 1.5'))
    prony_path = tmp_path / "two_atoms_natadd1__prony.json"
    prony_path.write_text(prony_path.read_text().replace('"command": "prony"', '"command": "other"'))
    os.remove(tmp_path / "kernel_extremal__kernel.json")
    edited = golden_bytes(tmp_path)

    assert update_goldens.check(str(tmp_path)) == 1
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["two_atoms_natadd1__pd"] == "changed, max abs drift 0.5, max rel drift 0.333"
    assert lines["two_atoms_natadd1__prony"] == "changed, not only in numbers"
    assert lines["kernel_extremal__kernel"].startswith("changed (cannot read the golden")
    assert lines["point_mass_natadd2__transform"] == "unchanged, max abs drift 0, max rel drift 0"
    assert golden_bytes(tmp_path) == edited


def test_drift_compares_numbers_only():
    assert update_goldens.drift({"a": [1, 2.0]}, {"a": [1, 2.0]}) == (0.0, 0.0)
    assert update_goldens.drift([1e-16, -2.0], [0, -2.0000000000000004]) == (4.440892098500626e-16, 1.0)
    assert update_goldens.drift([True], [1]) is None
    assert update_goldens.drift({"a": 1, "b": 2}, {"b": 2, "a": 1}) is None
    assert update_goldens.drift([1, 2], [1]) is None
    assert update_goldens.drift(None, None) == (0.0, 0.0)
