#!/usr/bin/env python3
"""Regenerate the golden CLI reports after an intentional output change.

Usage:
    python tests/update_goldens.py           # rewrite every golden file
    python tests/update_goldens.py --check   # write nothing; exit 1 if any golden would change

``--check`` regenerates every report in memory and prints, for each golden,
whether it is unchanged and the largest absolute and relative difference
between its numbers and the committed file's: the drift figures that a
change which moves goldens must report.
"""

import argparse
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from lapcov.cli import main  # noqa: E402
from test_cli import GOLDEN, GOLDEN_CASES, build_argv  # noqa: E402


def render(name, scenario, tail, expected_code) -> str:
    out = io.StringIO()
    code = main(build_argv(scenario, tail), stdout=out, stderr=io.StringIO())
    if code != expected_code:
        raise SystemExit(f"{name}: exit code {code}, expected {expected_code}")
    return out.getvalue()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def drift(old, new):
    """(max absolute, max relative) difference between the numbers of two parsed
    reports, or None if they differ in anything but numbers."""
    if _is_number(old) and _is_number(new):
        diff = abs(old - new)
        scale = max(abs(old), abs(new))
        return diff, diff / scale if scale else 0.0
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            return None
        pairs = zip(old.values(), new.values())
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return None
        pairs = zip(old, new)
    else:
        return (0.0, 0.0) if type(old) is type(new) and old == new else None
    worst_abs = worst_rel = 0.0
    for a, b in pairs:
        found = drift(a, b)
        if found is None:
            return None
        worst_abs, worst_rel = max(worst_abs, found[0]), max(worst_rel, found[1])
    return worst_abs, worst_rel


def check(golden_dir: str = GOLDEN) -> int:
    """Compare regenerated reports with the committed goldens; 1 if any differs."""
    changed = 0
    for name, scenario, tail, expected_code in GOLDEN_CASES:
        new = render(name, scenario, tail, expected_code)
        try:
            with open(os.path.join(golden_dir, name + ".json"), "rb") as fh:
                old = fh.read().decode("utf-8")
        except OSError as exc:
            print(f"{name}: changed (cannot read the golden: {exc})")
            changed += 1
            continue
        status = "unchanged" if old == new else "changed"
        changed += old != new
        found = drift(json.loads(old), json.loads(new))
        if found is None:
            print(f"{name}: {status}, not only in numbers")
        else:
            print(f"{name}: {status}, max abs drift {found[0]:.3g}, max rel drift {found[1]:.3g}")
    return 1 if changed else 0


def regenerate(golden_dir: str = GOLDEN):
    os.makedirs(golden_dir, exist_ok=True)
    for name, scenario, tail, expected_code in GOLDEN_CASES:
        text = render(name, scenario, tail, expected_code)
        path = os.path.join(golden_dir, name + ".json")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        print(f"wrote {path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 if any golden would change")
    if parser.parse_args().check:
        sys.exit(check())
    regenerate()
