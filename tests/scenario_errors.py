#!/usr/bin/env python3
"""The scenario message corpus: what every one-fault mutant of the test scenarios prints.

Usage:
    python tests/scenario_errors.py           # rewrite tests/data/scenario_errors.json
    python tests/scenario_errors.py --check   # write nothing; exit 1 and list the entries that differ

A mutant is one of the five test scenarios with one fault: a JSON node
deleted, a node replaced by null, true, "x", 1.5, -1, [] or {}, or an
unknown key added to an object.  Each mutant runs with the argv of every
golden case that reads its scenario.  The corpus stores the exit code, the
stdout (its sha256 when the command succeeded, since reports are long) and
the stderr, so a change to scenario validation that moves any message, path
or exit code shows up entry by entry.
"""

import argparse
import copy
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from lapcov.cli import main  # noqa: E402
from test_cli import GOLDEN_CASES, SCENARIOS  # noqa: E402

CORPUS = os.path.join(HERE, "data", "scenario_errors.json")
REPLACEMENTS = (("null", None), ("true", True), ('"x"', "x"), ("1.5", 1.5), ("-1", -1), ("[]", []), ("{}", {}))
UNKNOWN_KEY = "zz_unknown"


def _nodes(value, path=()):
    """(path, value) of every node, root first; a path is a tuple of keys and indices."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _nodes(item, path + (key,))


def _label(path) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text or "$"


_DELETE = object()


def _replaced(data, path, new):
    """A copy of ``data`` with the node at ``path`` replaced by ``new``, or deleted for ``_DELETE``."""
    if not path:
        return copy.deepcopy(new)
    mutant = copy.deepcopy(data)
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    if new is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(new)
    return mutant


def mutants(data):
    """(label, mutant) for every one-fault mutant of ``data``, in a fixed order."""
    for path, value in _nodes(data):
        label = _label(path)
        if path:
            yield f"delete {label}", _replaced(data, path, _DELETE)
        for text, replacement in REPLACEMENTS:
            yield f"set {label} = {text}", _replaced(data, path, replacement)
        if isinstance(value, dict):
            yield f"add {label}.{UNKNOWN_KEY}", _replaced(data, path, dict(value, **{UNKNOWN_KEY: 0}))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    stdout = out.getvalue()
    if code != 1:
        stdout = "sha256:" + hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return [code, stdout, err.getvalue()]


def case_entries(scenario: str, tail, directory: str) -> dict:
    """label -> [exit code, stdout or its digest, stderr] for every mutant of one golden case."""
    with open(os.path.join(SCENARIOS, scenario), encoding="utf-8") as handle:
        data = json.load(handle)
    path = os.path.join(directory, "mutant.json")
    entries = {}
    for label, mutant in mutants(data):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(mutant, handle)
        entries[label] = run([tail[0], path] + tail[1:])
    return entries


def build() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        return {name: case_entries(scenario, tail, directory) for name, scenario, tail, _ in GOLDEN_CASES}


def dump(corpus: dict) -> str:
    """The corpus as JSON with one entry per line, so a moved message is a one-line diff."""
    cases = []
    for name, entries in corpus.items():
        lines = [f"  {json.dumps(label)}: {json.dumps(entry)}" for label, entry in entries.items()]
        cases.append(json.dumps(name) + ": {\n" + ",\n".join(lines) + "\n }")
    return "{\n " + ",\n ".join(cases) + "\n}\n"


def load() -> dict:
    with open(CORPUS, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 if any entry would change")
    corpus = build()
    if parser.parse_args().check:
        old = load()
        changed = [(name, label, entry) for name in corpus for label, entry in corpus[name].items()
                   if old.get(name, {}).get(label) != entry]
        for name, label, entry in changed:
            print(f"{name}: {label}: {old.get(name, {}).get(label)} -> {entry}")
        sys.exit(1 if changed or corpus.keys() != old.keys() else 0)
    with open(CORPUS, "w", encoding="utf-8") as handle:
        handle.write(dump(corpus))
    print(f"wrote {CORPUS}: {sum(map(len, corpus.values()))} entries")
