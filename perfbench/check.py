"""Ground-truth checker: compares one CLI report with the generator's truth.

``check`` returns the list of problems (empty when the op passed) and a set
of notes.  The only note is ``"aliased"``: a half-line point mass whose Im
zeta lies outside the default grid's alias band came back as the aliased
value with ``zeta_resolved: true``.  That is a known defect of the program
(the grid fixes Im zeta only modulo 2*pi/0.25), counted by the benchmark
instead of failing the op; any other wrong zeta is a failure.
"""

import cmath
import json
import math

from scenarios import ALIAS_PERIOD, disc_positions, grid_elements, rho, symbol_value

C_TOL = 1e-9            # |c - c_true| / (1 + |c_true|)
ZETA_TOL = 1e-7         # |zeta - zeta_true| / (1 + |zeta_true|)
PHASE_TOL = 1e-7
DEFECT_MAX = 1e-8       # multiplicativity defect of a recovered point mass
RANK_ONE_MAX = 1e-6     # sigma_2 / sigma_1 of a point mass's Toeplitz matrix
ROUTE_DIFF_MAX = 1e-6   # |character_from_atom - character_direct|
SEMICHAR_MAX = 1e-9
TRANSFORM_TOL = 1e-9    # relative to sum_k |w_k F(z_k) rho_k(s) rho_k(t)|
DISC_MERGE = 1e-9       # disc atoms closer than this count as one


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _point(raw) -> tuple:
    return tuple(_complex(c) for c in raw)


def _close(a, b, tol) -> bool:
    return all(abs(x - y) <= tol * (1 + abs(y)) for x, y in zip(a, b)) and len(a) == len(b)


def _family(op) -> str:
    return op.scenario["semigroup"]["kind"] if "semigroup" in op.scenario else None


def _atoms(op):
    return [(_point(a["point"]), _complex(a["weight"])) for a in op.scenario["measure"]["atoms"]]


def _element(family, raw):
    if family == "nat_add":
        return tuple(raw)
    return raw


def _order(op):
    return op.scenario.get("grid", {}).get("order")


def _alias(zeta: complex) -> complex:
    """The value the principal logarithm on the 0.25-step grid returns."""
    return zeta - 1j * ALIAS_PERIOD * round(zeta.imag / ALIAS_PERIOD)


def _check_zeta(op, report, problems, notes):
    truth = op.expect["zeta"]
    got = report.get("zeta")
    if got is None or not report.get("zeta_resolved", True):
        if not op.expect.get("beyond_band"):
            problems.append("zeta unresolved")
        return
    zeta = _point(got)
    if _close(zeta, truth, ZETA_TOL):
        return
    if op.expect.get("beyond_band") and _close(zeta, (_alias(truth[0]),), ZETA_TOL):
        notes.add("aliased")
        return
    problems.append(f"zeta {zeta} != {truth}")


def _check_c(op, report, problems):
    c = _complex(report["c"])
    if abs(c - op.expect["c"]) > C_TOL * (1 + abs(op.expect["c"])):
        problems.append(f"c {c} != {op.expect['c']}")


def _check_grid_size(op, report, problems):
    expected = len(grid_elements(_family(op), _order(op)))
    if report.get("grid_size") != expected:
        problems.append(f"grid_size {report.get('grid_size')} != {expected}")


def _covariance(op, report, problems, notes):
    kind = op.expect["kind"]
    if kind == "zero_mass":
        if report.get("verdict") != "degenerate" or report.get("case") != "mass_zero_neither_vanishes":
            problems.append(f"verdict {report.get('verdict')}/{report.get('case')} for a zero-mass measure")
        return
    if report.get("verdict") != kind:
        problems.append(f"verdict {report.get('verdict')} != {kind}")
        return
    _check_grid_size(op, report, problems)
    if report.get("symbol_vanishes_on_atom"):
        problems.append("symbol_vanishes_on_atom set for a nonvanishing symbol")
    if kind == "point_mass":
        _check_c(op, report, problems)
        _check_zeta(op, report, problems, notes)
        if report["multiplicativity_defect"] > DEFECT_MAX:
            problems.append(f"multiplicativity_defect {report['multiplicativity_defect']}")


def _recover(op, report, problems, notes):
    _check_c(op, report, problems)
    _check_grid_size(op, report, problems)
    if op.expect["kind"] == "point_mass":
        _check_zeta(op, report, problems, notes)
        if report["multiplicativity_defect"] > DEFECT_MAX:
            problems.append(f"multiplicativity_defect {report['multiplicativity_defect']}")


def _transform(op, report, problems, notes):
    family = _family(op)
    n = len(grid_elements(family, _order(op)))
    values = report["values"]
    if len(report["grid"]) != n or len(values) != n * n:
        problems.append(f"transform table has {len(values)} values, expected {n * n}")
        return
    atoms = _atoms(op)
    symbol = op.scenario.get("symbol")
    weighted = [(p, w * symbol_value(symbol, p)) for p, w in atoms]
    for index in sorted({0, len(values) - 1, n + 1, len(values) // 2, len(values) // 3}):
        entry = values[index]
        s, t = _element(family, entry["s"]), _element(family, entry["t"])
        terms = [wf * rho(family, p, s) * rho(family, p, t).conjugate() for p, wf in weighted]
        truth = sum(terms)
        scale = sum(abs(x) for x in terms)
        if abs(_complex(entry["v"]) - truth) > TRANSFORM_TOL * scale + 1e-300:
            problems.append(f"transform value at ({s}, {t}) off by {abs(_complex(entry['v']) - truth)}")


def _disc_count(op, s) -> int:
    """Distinct induced disc atoms at element s, computed independently."""
    positions = disc_positions(_family(op), [p for p, _ in _atoms(op)], s)
    distinct = []
    for a in positions:
        if all(abs(a - b) > DISC_MERGE for b in distinct):
            distinct.append(a)
    return len(distinct)


def _toeplitz(op, report, problems, notes):
    family = _family(op)
    n = len(grid_elements(family, _order(op)))
    if len(report["per_element"]) != n:
        problems.append(f"{len(report['per_element'])} elements, expected {n}")
    for entry in report["per_element"]:
        s = _element(family, entry["s"])
        if not entry["luecking_agree"]:
            problems.append(f"luecking disagreement at {s}")
        if entry["atom_count"] != _disc_count(op, s):
            problems.append(f"atom_count {entry['atom_count']} at {s}, expected {_disc_count(op, s)}")
        if op.expect["kind"] == "point_mass" and entry["rank_one_ratio"] > RANK_ONE_MAX:
            problems.append(f"rank_one_ratio {entry['rank_one_ratio']} at {s}")


def _prony(op, report, problems, notes):
    family = _family(op)
    for entry in report["per_element"]:
        s = _element(family, entry["s"])
        expected = _disc_count(op, s)
        if entry["rank"] != expected:
            problems.append(f"prony rank {entry['rank']} at {s}, expected {expected}")
        diff = entry["route_difference"]
        if op.expect["kind"] == "point_mass" and (diff is None or diff > ROUTE_DIFF_MAX):
            problems.append(f"route_difference {diff} at {s}")


def _pd(op, report, problems, notes):
    if not report["is_positive_definite"]:
        problems.append(f"positive weights gave min eigenvalue {report['min_eigenvalue']}")
    if op.expect["kind"] == "point_mass" and not report["semicharacter_defect"] <= SEMICHAR_MAX:
        problems.append(f"semicharacter_defect {report['semicharacter_defect']}")
    if not report["bv_norm"] > 0:
        problems.append("bv_norm is not positive")


def _random_vector(op, report, problems, notes):
    if report.get("verdict") != op.expect["kind"]:
        problems.append(f"verdict {report.get('verdict')} != {op.expect['kind']}")
    elif op.expect["kind"] == "constant":
        _check_zeta(op, report, problems, notes)


def _kernel(op, report, problems, notes):
    if report.get("verdict") != "extremal":
        problems.append(f"verdict {report.get('verdict')} ({report.get('reason')}) != extremal")
        return
    _check_c(op, report, problems)
    _check_zeta(op, report, problems, notes)
    if abs(cmath.exp(1j * report["phase"]) - cmath.exp(1j * op.expect["phase"])) > PHASE_TOL:
        problems.append(f"phase {report['phase']} != {op.expect['phase']}")


_CHECKS = {
    "covariance": _covariance,
    "recover": _recover,
    "transform": _transform,
    "toeplitz": _toeplitz,
    "prony": _prony,
    "pd": _pd,
    "random-vector": _random_vector,
    "kernel": _kernel,
}


def check(op, exit_code: int, text: str):
    """(problems, notes) for one op's exit code and stdout."""
    problems, notes = [], set()
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"], notes
    if not isinstance(report, dict):
        return ["report is not a JSON object"], notes
    if "error" in report:
        return [f"error report {report['error'].get('code')}: {report['error'].get('message')}"], notes
    if exit_code != op.expect["exit"]:
        problems.append(f"exit code {exit_code} != {op.expect['exit']}")
    try:
        _CHECKS[op.cmd](op, report, problems, notes)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed {op.cmd} report: {exc!r}")
    if not all(math.isfinite(v) for v in _numbers(report)):
        problems.append("non-finite number in report")
    return problems, notes


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, float):
        yield value
