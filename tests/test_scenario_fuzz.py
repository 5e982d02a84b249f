"""Scenarios with one to three faults end in a report or a JSON error, never in a traceback.

The faults come from the scenario schema, ``lapcov.scenario.SECTIONS``: ``sites``
pairs each JSON node of a test scenario with the table, array or leaf that
parses it, so a key added to a table is fuzzed as soon as it is there.

Each example's scenario is written to stderr before it runs, and a watchdog
ends the run with a traceback of every thread when one example takes longer
than ``WATCHDOG_S``: a hang inside LAPACK cannot be interrupted by a signal or
a timeout exception.  The traceback goes to the run's stderr; run with ``-s``
to see the scenario that hung just above it.
"""

import faulthandler
import json
import os
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lapcov.scenario import MISSING, REQUIRED, SECTIONS, Array, Kinds, Section, nonnegative_int, positive_int
from test_cli import GOLDEN_CASES, SCENARIOS, run_cli

WATCHDOG_S = 60
WRONG_TYPES = (None, True, "x", 1.5, [], {})
BAD_INTS = (-1, 0, True, 2.5)


def sites(node, table, path=()):
    """Every fault that ``table`` can see in ``node``, as (kind, path, argument).

    Kinds: "drop" a required key, "add" an unknown key, or set a value to a
    wrong JSON "type", an "empty" list or a "bad_int" where an int belongs.
    """
    if isinstance(table, Kinds):
        kind = node.get("kind") if "kind" in node or table.default is None else table.default(node)
        if table.default is None and "kind" in node:
            yield "drop", path, "kind"
        if isinstance(kind, str) and kind in table.tables:
            yield from sites(node, table.tables[kind], path)
    elif isinstance(table, Section):
        yield "add", path, None
        for key, (leaf, default) in table.fields.items():
            if key in node:
                if default in (REQUIRED, MISSING, None):
                    yield "drop", path, key
                yield from _value_sites(node[key], leaf, path + (key,))
    elif isinstance(table, Array):
        yield "empty", path, []
        for i, value in enumerate(node):
            yield from _value_sites(value, table.item, path + (i,))


def _value_sites(node, table, path):
    for value in WRONG_TYPES:
        if type(value) is not type(node):
            yield "type", path, value
    if table in (positive_int, nonnegative_int):
        yield from (("bad_int", path, value) for value in BAD_INTS)
    walked = (Kinds, Section) if isinstance(node, dict) else Array if isinstance(node, list) else ()
    if isinstance(table, walked):
        yield from sites(node, table, path)


def scenario_sites(scenario: dict) -> list:
    found = [("add", (), None)]
    for name, value in scenario.items():
        found.append(("drop", (), name))
        if name in SECTIONS:
            found.extend(_value_sites(value, SECTIONS[name], (name,)))
    return found


def apply(scenario: dict, fault) -> dict:
    scenario = json.loads(json.dumps(scenario))
    kind, path, argument = fault
    parent = scenario
    for key in path if kind in ("drop", "add") else path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[argument]
    elif kind == "add":
        parent["zz_unknown"] = 1
    else:
        parent[path[-1]] = argument
    return scenario


@settings(max_examples=200, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_faulty_scenarios_end_in_a_report_or_a_json_error(tmp_path_factory, stderr_fd, data):
    _, source, tail, _ = data.draw(st.sampled_from(GOLDEN_CASES))
    with open(os.path.join(SCENARIOS, source), encoding="utf-8") as handle:
        scenario = json.load(handle)
    for _ in range(data.draw(st.integers(1, 3))):
        # a fault kind first, so that the few int and drop faults are drawn as often as the many type faults
        found = scenario_sites(scenario)
        kind = data.draw(st.sampled_from(sorted({fault[0] for fault in found})))
        scenario = apply(scenario, data.draw(st.sampled_from([fault for fault in found if fault[0] == kind])))
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(scenario))
    sys.stderr.write(f"{tail[0]} {json.dumps(scenario)}\n")
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=stderr_fd)
    try:
        code, out, err = run_cli([tail[0], str(path)] + tail[1:])
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert code in (0, 1, 2)
    report = json.loads(out)
    if code == 1:
        assert report["error"]["code"] != "internal_error", report
    assert "Traceback" not in err
