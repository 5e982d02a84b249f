"""Scenarios with one to three faults end in a report or a JSON error, never in a traceback.

The faults come from the scenario schema, ``lapcov.scenario.SECTIONS``: ``sites``
pairs each JSON node of a test scenario with the table, array or leaf that
parses it, so a key added to a table is fuzzed as soon as it is there.

Invariant 5, scale invariance: the covariance identity is homogeneous in the
weights and in F, so scaling them by exact powers of two leaves every verdict,
witness, ``max_residual`` and zeta as it was, with c scaled exactly.

Cancelling weights: +-B at two points and a small remainder at a third, with
the mass tolerance down to 1e-20, run through the measure commands and
random-vector and end in a report or a JSON error as well.

Each example's scenario is written to stderr before it runs, and a watchdog
ends the run with a traceback of every thread when one example takes longer
than ``WATCHDOG_S``: a hang inside LAPACK cannot be interrupted by a signal or
a timeout exception.  The traceback goes to the run's stderr; run with ``-s``
to see the scenario that hung just above it.
"""

import faulthandler
import json
import math
import os
import sys

from hypothesis import HealthCheck, example, given, settings
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


# the commands each test scenario is scaled under; kernel_extremal's pair keeps |f|^2 = w |K|^2 only when
# its weight scales by the square of f's factor
SCALED_COMMANDS = {
    "kernel_extremal.json": ("kernel", "covariance", "recover"),
    "point_mass_natadd2.json": ("covariance", "recover"),
    "two_atoms_natadd1.json": ("covariance", "recover"),
    "zero_mass_natadd1.json": ("covariance", "recover"),
    "random_vector_two_point.json": ("random-vector",),
}
SEMIGROUPS = (
    {"kind": "nat_add", "d": 1},
    {"kind": "nat_add", "d": 2},
    {"kind": "nat_mult", "primes": 2},
    {"kind": "half_line"},
)
# scaled parts stay this many binary orders inside the normal range, where a power-of-two scale is
# exact, also for the monomials of a poly symbol and for the mass gate's tol * sum |w|
MARGIN = 80


def pair(value: complex) -> list:
    return [value.real, value.imag]


def random_scenario(data) -> dict:
    """One to four atoms with complex weights under a poly symbol, in any of the three families."""
    semigroup = data.draw(st.sampled_from(SEMIGROUPS))
    dim = {"nat_add": semigroup.get("d"), "nat_mult": semigroup.get("primes"), "half_line": 1}[semigroup["kind"]]
    unit = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3)
    number = st.builds(complex, unit, unit)
    # the half-line needs Re z >= 0
    coordinate = st.builds(complex, st.floats(1e-3, 1.0), unit) if semigroup["kind"] == "half_line" else number
    atoms = data.draw(st.lists(st.tuples(st.lists(coordinate, min_size=dim, max_size=dim), number), min_size=1, max_size=4))
    terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * dim), number, min_size=1, max_size=3))
    return {
        "semigroup": semigroup,
        "measure": {"atoms": [{"point": [pair(z) for z in point], "weight": pair(w)} for point, w in atoms]},
        "symbol": {"kind": "poly", "terms": [{"m": list(m), "c": pair(c)} for m, c in terms.items()]},
    }


def scaled_parts(scenario: dict) -> tuple:
    """The [re, im] lists that scale with the weights, and those that scale with F."""
    weights = [atom["weight"] for atom in scenario.get("measure", {}).get("atoms", [])]
    weights += [outcome["y"] for outcome in scenario.get("random_vector", {}).get("outcomes", [])]
    symbol, kernel = scenario.get("symbol", {}), scenario.get("kernel", {})
    values = [term["c"] for term in symbol.get("terms", [])] + ([symbol["value"]] if "value" in symbol else [])
    return weights, values + [term["b"] for term in kernel.get("f", [])]


def exponent_range(parts: list, power: int) -> tuple:
    """The n, lo <= n <= hi, for which the ``power``-th powers of every nonzero part times 2**n stay MARGIN
    binary orders inside the normal range."""
    found = [math.frexp(x)[1] for part in parts for x in part if x != 0]
    return -((1021 - MARGIN) // power) - min(found), (1024 - MARGIN) // power - max(found)


def scaled(scenario: dict, j: int, m: int) -> dict:
    """``scenario`` with the weights times 2**j and F (or f) times 2**m."""
    scenario = json.loads(json.dumps(scenario))
    weights, values = scaled_parts(scenario)
    for parts, n in ((weights, j), (values, m)):
        for part in parts:
            part[:] = [math.ldexp(x, n) for x in part]
    return scenario


def report_of(command: str, path) -> tuple:
    code, out, err = run_cli([command, str(path)])
    assert "Traceback" not in err
    report = json.loads(out)
    if code == 1:
        assert report["error"]["code"] != "internal_error", report
    return code, report


def rescaled(report: dict, j: int, m: int) -> dict:
    """What ``report`` becomes when the weights scale by 2**j and F by 2**m: c by 2**j, residuals by 2**(2j + 2m)."""
    report, powers = dict(report), {"c": j}
    if report["command"] in ("covariance", "random_vector"):
        powers["residual"] = 2 * (j + m)
    if report["command"] == "kernel":
        powers["max_residual"] = j  # kernel prints its residual in the measure's units
    for key, n in powers.items():
        if report.get(key) is not None:
            value = report[key]
            report[key] = [math.ldexp(x, n) for x in value] if isinstance(value, list) else math.ldexp(value, n)
    return report


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_power_of_two_scales_leave_verdicts_alone(tmp_path_factory, stderr_fd, data):
    source = data.draw(st.sampled_from(sorted(SCALED_COMMANDS) + ["random"]))
    if source == "random":
        scenario, commands = random_scenario(data), ("covariance", "recover")
    else:
        with open(os.path.join(SCENARIOS, source), encoding="utf-8") as handle:
            scenario = json.load(handle)
        commands = SCALED_COMMANDS[source]
    weights, values = scaled_parts(scenario)
    if "kernel" in scenario:
        # the weight by 4**i and f by 2**i, as |f|^2, which the kernel equation takes, scales
        i = data.draw(st.integers(*exponent_range(weights + values, 2)))
        j, m = 2 * i, i
    else:
        # the engine squares the weights and F only after normalizing them
        j = data.draw(st.integers(*exponent_range(weights, 1)))
        m = data.draw(st.integers(*exponent_range(values, 1))) if values else 0
    base, path = tmp_path_factory.getbasetemp() / "unscaled.json", tmp_path_factory.getbasetemp() / "scaled.json"
    base.write_text(json.dumps(scenario))
    path.write_text(json.dumps(scaled(scenario, j, m)))
    sys.stderr.write(f"scaled by 2**{j} and 2**{m}: {json.dumps(scenario)}\n")
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=stderr_fd)
    try:
        for command in commands:
            (code, report), (scaled_code, scaled_report) = report_of(command, base), report_of(command, path)
            if scaled_code == 1 and code != 1:
                # a witness residual scaled back past the float range is the one error scaling may add
                assert scaled_report["error"]["code"] == "numeric_overflow", scaled_report
                continue
            assert scaled_code == code
            # F is kernel_extremal's f only under kernel; covariance and recover read no symbol there
            assert scaled_report == (report if code == 1 else rescaled(report, j, m if "symbol" in scenario else 0))
    finally:
        faulthandler.cancel_dump_traceback_later()


# the commands cancelling weights run through, and those of them that take --tol-mass
CANCELLING_COMMANDS = ("covariance", "recover", "prony", "pd", "random-vector")
TOL_MASS_COMMANDS = ("covariance", "recover", "prony", "random-vector")


def cancelling_scenario(command: str, points: list, big: float, remainder: float, remainder_first: bool) -> dict:
    """Weights big and -big at two of ``points`` and ``remainder`` at the first or the last of them in point order.

    For random-vector the outcomes come in the order +big, -big, remainder, with p = 1/4, 1/4, 1/2, so the
    weights p * y are the same: E[Y] sums in outcome order, the induced measure in point order.
    """
    points = sorted(points)
    at = points[1:] + points[:1] if remainder_first else points
    weights = (big, -big, remainder)
    if command == "random-vector":
        outcomes = [{"p": p, "x": [[z, 0.0]], "y": [w / p, 0.0]} for p, z, w in zip((0.25, 0.25, 0.5), at, weights)]
        return {"random_vector": {"outcomes": outcomes, "max_order": 2}}
    atoms = [{"point": [[z, 0.0]], "weight": [w, 0.0]} for z, w in zip(at, weights)]
    return {"semigroup": {"kind": "nat_add", "d": 1}, "measure": {"atoms": atoms}}


@settings(max_examples=100, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(CANCELLING_COMMANDS),
    points=st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3, unique=True),
    big=st.floats(1.0, 2.0**80),
    remainder=st.floats(1e-300, 2.0**40),
    remainder_first=st.booleans(),
    tol_mass=st.none() | st.floats(1e-20, 1e-10),
)
# E[Y] keeps the 2**20 that the induced measure's mass, summed from the remainder on, loses
@example(command="random-vector", points=[0.1, 0.5, 0.9], big=2.0**74, remainder=2.0**20, remainder_first=True, tol_mass=1e-20)
# f(e, e) is the remainder alone, and the semicharacter defect divides by it
@example(command="pd", points=[0.1, 0.2, 0.3], big=1.0, remainder=1e-300, remainder_first=False, tol_mass=None)
@example(command="pd", points=[0.1, 0.2, 0.3], big=1e20, remainder=1e-290, remainder_first=False, tol_mass=None)
def test_cancelling_weights_end_in_a_report_or_a_json_error(
    tmp_path_factory, stderr_fd, command, points, big, remainder, remainder_first, tol_mass
):
    scenario = cancelling_scenario(command, points, big, remainder, remainder_first)
    path = tmp_path_factory.getbasetemp() / "cancelling.json"
    path.write_text(json.dumps(scenario))
    flags = ["--tol-mass", repr(tol_mass)] if tol_mass is not None and command in TOL_MASS_COMMANDS else []
    sys.stderr.write(f"{command} {' '.join(flags)} {json.dumps(scenario)}\n")
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=stderr_fd)
    try:
        code, out, err = run_cli([command, str(path)] + flags)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert code in (0, 1, 2)
    report = json.loads(out)
    if code == 1:
        assert report["error"]["code"] != "internal_error", report
    assert "Traceback" not in err
