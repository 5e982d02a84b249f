"""Scenario-file parsing and the JSON encodings shared with reports.

Complex numbers are [re, im] pairs (a bare number is accepted as a real).
Elements are encoded per semigroup family: a list of ints for nat_add, an
int for nat_mult, a number for half_line.  Character points are arrays of
complex pairs.
"""

import json
import math
import sys
from dataclasses import dataclass

from .errors import ScenarioError
from .kernels import DEFAULT_TRUNCATION, KernelCoefficients
from .laplace import EvaluationGrid, Tolerances, default_grid
from .measures import AtomicMeasure, Symbol
from .randomvectors import DiscreteRandomVector
from .semigroups import HALF_LINE, NAT_ADD, NAT_MULT, Semigroup, validate_element


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def check_keys(data, keys, path: str) -> dict:
    """``data`` itself, once it is an object whose keys are all among ``keys``: a misspelt key is an error."""
    if not isinstance(data, dict):
        _fail(path, "expected an object")
    for key in data:
        if key not in keys:
            _fail(f"{path}.{key}" if path else key, f"unknown key; expected one of {', '.join(keys)}")
    return data


class _NonFinite:
    """A JSON number that is NaN, infinite or overflows a float, kept in place to name its path."""

    def __init__(self, token: str):
        self.token = token


def _non_finite_path(value, path: str):
    """(path, token) of the first _NonFinite in parsed JSON, or None."""
    if isinstance(value, _NonFinite):
        return path, value.token
    if isinstance(value, dict):
        children = [(f"{path}.{key}" if path else key, item) for key, item in value.items()]
    elif isinstance(value, list):
        children = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    else:
        return None
    for child_path, item in children:
        found = _non_finite_path(item, child_path)
        if found:
            return found
    return None


def parse_json(text: str, path: str = ""):
    """Decode JSON whose numbers are all finite floats: NaN, Infinity and overflow such as 1e999 are rejected."""
    rejected = []

    def non_finite(token: str) -> _NonFinite:
        rejected.append(token)
        return _NonFinite(token)

    def finite_float(token: str):
        value = float(token)
        return value if math.isfinite(value) else non_finite(token)

    def finite_int(token: str):
        if len(token) > 400:  # past any float, and past int()'s digit limit at 4300
            return non_finite(token)
        value = int(token)
        return value if abs(value) <= sys.float_info.max else non_finite(token)

    try:
        data = json.loads(text, parse_constant=non_finite, parse_float=finite_float, parse_int=finite_int)
    except json.JSONDecodeError as exc:
        _fail(path or "scenario", f"not valid JSON: {exc}")
    if rejected:
        where, token = _non_finite_path(data, path)
        _fail(where or "scenario", f"number {token} is not a finite float")
    return data


def parse_complex(value, path: str) -> complex:
    if isinstance(value, bool):
        _fail(path, "expected a complex number, got a boolean")
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(float(value[0]), float(value[1]))
    _fail(path, "expected [re, im] (or a bare real number)")


def parse_point(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty array of complex coordinates")
    return tuple(parse_complex(v, f"{path}[{i}]") for i, v in enumerate(value))


def parse_multi_index(value, path: str) -> tuple:
    """A multi-index: an array of nonnegative ints."""
    if not isinstance(value, list):
        _fail(path, "expected a multi-index array")
    for i, x in enumerate(value):
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            _fail(f"{path}[{i}]", "expected a nonnegative integer")
    return tuple(value)


def parse_element(semigroup: Semigroup, value, path: str):
    try:
        if semigroup.family == NAT_ADD:
            if not isinstance(value, list):
                _fail(path, "nat_add elements are arrays of nonnegative ints")
            return validate_element(semigroup, value)
        if semigroup.family == NAT_MULT:
            if not isinstance(value, int) or isinstance(value, bool):
                _fail(path, "nat_mult elements are positive ints")
            return validate_element(semigroup, value)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, "half_line elements are nonnegative numbers")
        return validate_element(semigroup, value)
    except ScenarioError:
        raise
    except Exception as exc:
        _fail(path, str(exc))


def element_to_json(semigroup: Semigroup, element):
    if semigroup.family == NAT_ADD:
        return [int(x) for x in element]
    if semigroup.family == NAT_MULT:
        return int(element)
    return float(element)


def point_to_json(point) -> list:
    return [[complex(z).real, complex(z).imag] for z in point]


_SEMIGROUP_KEYS = {NAT_ADD: ("kind", "d"), NAT_MULT: ("kind", "primes"), HALF_LINE: ("kind",)}


def parse_semigroup(data, path: str = "semigroup") -> Semigroup:
    if not isinstance(data, dict) or "kind" not in data:
        _fail(path, "expected an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _SEMIGROUP_KEYS:
        _fail(f"{path}.kind", f"unknown semigroup kind {kind!r}")
    check_keys(data, _SEMIGROUP_KEYS[kind], path)
    if kind == HALF_LINE:
        return Semigroup.half_line()
    key = _SEMIGROUP_KEYS[kind][1]
    size = parse_positive_int(data.get(key, 1), f"{path}.{key}")
    try:
        return Semigroup.nat_add(size) if kind == NAT_ADD else Semigroup.nat_mult(size)
    except Exception as exc:
        _fail(path, str(exc))


def parse_measure(semigroup: Semigroup, data, path: str = "measure") -> AtomicMeasure:
    if not isinstance(data, dict) or not isinstance(data.get("atoms"), list) or not data["atoms"]:
        _fail(path, "expected an object with a nonempty 'atoms' array")
    check_keys(data, ("atoms",), path)
    atoms = []
    for i, atom in enumerate(data["atoms"]):
        apath = f"{path}.atoms[{i}]"
        if not isinstance(atom, dict) or "point" not in atom or "weight" not in atom:
            _fail(apath, "expected an object with 'point' and 'weight'")
        check_keys(atom, ("point", "weight"), apath)
        point = parse_point(atom["point"], f"{apath}.point")
        weight = parse_complex(atom["weight"], f"{apath}.weight")
        atoms.append((point, weight))
    try:
        return AtomicMeasure(semigroup, tuple(atoms))
    except Exception as exc:
        _fail(path, str(exc))


def parse_symbol(data, path: str = "symbol", semigroup: Semigroup = None) -> Symbol:
    """A symbol section; with ``semigroup``, polynomial multi-indices must match its point dimension."""
    if data is None:
        return Symbol.constant(1)
    if not isinstance(data, dict) or "kind" not in data:
        _fail(path, "expected an object with a 'kind' field")
    kind = data["kind"]
    if kind == "const":
        check_keys(data, ("kind", "value"), path)
        return Symbol.constant(parse_complex(data.get("value", 1), f"{path}.value"))
    if kind == "poly":
        check_keys(data, ("kind", "terms"), path)
        terms = data.get("terms")
        if not isinstance(terms, list):
            _fail(f"{path}.terms", "expected an array of {m, c} terms")
        coefficients = {}
        for i, term in enumerate(terms):
            tpath = f"{path}.terms[{i}]"
            if not isinstance(term, dict) or "m" not in term or "c" not in term:
                _fail(tpath, "expected an object with 'm' and 'c'")
            check_keys(term, ("m", "c"), tpath)
            index = parse_multi_index(term["m"], f"{tpath}.m")
            if semigroup is not None and len(index) != semigroup.point_dim:
                _fail(f"{tpath}.m", f"expected a multi-index of length {semigroup.point_dim}")
            coefficients[index] = coefficients.get(index, 0j) + parse_complex(term["c"], f"{tpath}.c")
        return Symbol.polynomial(coefficients)
    if kind == "table":
        check_keys(data, ("kind", "entries"), path)
        entries = data.get("entries")
        if not isinstance(entries, list):
            _fail(f"{path}.entries", "expected an array of {point, value} entries")
        table = {}
        for i, entry in enumerate(entries):
            epath = f"{path}.entries[{i}]"
            if not isinstance(entry, dict) or "point" not in entry or "value" not in entry:
                _fail(epath, "expected an object with 'point' and 'value'")
            check_keys(entry, ("point", "value"), epath)
            table[parse_point(entry["point"], f"{epath}.point")] = parse_complex(
                entry["value"], f"{epath}.value"
            )
        return Symbol.table(table)
    _fail(f"{path}.kind", f"unknown symbol kind {kind!r}")


def parse_positive_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        _fail(path, "expected a positive integer")
    return value


def parse_grid(semigroup: Semigroup, data, order_override: int = None, path: str = "grid") -> EvaluationGrid:
    if order_override is not None:
        return default_grid(semigroup, order=parse_positive_int(order_override, "--grid-order"))
    if data is None:
        return default_grid(semigroup)
    if len(check_keys(data, ("order", "elements"), path)) != 1:
        _fail(path, "expected exactly one of 'order' and 'elements'")
    if "elements" in data:
        if not isinstance(data["elements"], list) or not data["elements"]:
            _fail(f"{path}.elements", "expected a nonempty array of elements")
        elements = tuple(
            parse_element(semigroup, el, f"{path}.elements[{i}]")
            for i, el in enumerate(data["elements"])
        )
        return EvaluationGrid(semigroup, elements)
    return default_grid(semigroup, order=parse_positive_int(data["order"], f"{path}.order"))


def parse_tolerances(data, overrides: dict = None, path: str = "tolerances") -> Tolerances:
    values = {"mass": 1e-10, "residual": 1e-8, "rank": 1e-8}
    if data is not None:
        check_keys(data, tuple(values), path)
        for key in values:
            if key in data:
                value = data[key]
                if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
                    _fail(f"{path}.{key}", "expected a positive number")
                values[key] = float(value)
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = float(value)
    try:
        return Tolerances(**values)
    except Exception as exc:
        _fail(path, str(exc))


def parse_random_vector(data, path: str = "random_vector") -> DiscreteRandomVector:
    if not isinstance(data, dict) or not isinstance(data.get("outcomes"), list) or not data["outcomes"]:
        _fail(path, "expected an object with a nonempty 'outcomes' array")
    check_keys(data, ("outcomes", "max_order"), path)
    outcomes = []
    for i, outcome in enumerate(data["outcomes"]):
        opath = f"{path}.outcomes[{i}]"
        if not isinstance(outcome, dict) or not {"p", "x", "y"} <= set(outcome):
            _fail(opath, "expected an object with 'p', 'x' and 'y'")
        check_keys(outcome, ("p", "x", "y"), opath)
        p = outcome["p"]
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            _fail(f"{opath}.p", "expected a probability")
        outcomes.append(
            (float(p), parse_point(outcome["x"], f"{opath}.x"), parse_complex(outcome["y"], f"{opath}.y"))
        )
    try:
        return DiscreteRandomVector(tuple(outcomes))
    except Exception as exc:
        _fail(path, str(exc))


def parse_kernel(data, path: str = "kernel"):
    """Returns (KernelCoefficients, f coefficient dict, z grid or None, residual tolerance)."""
    check_keys(data, ("kind", "truncation", "coefficients", "f", "z_points", "residual_tol"), path)
    truncation = data.get("truncation", DEFAULT_TRUNCATION)
    if isinstance(truncation, bool) or not isinstance(truncation, int) or truncation < 0:
        _fail(f"{path}.truncation", "expected a nonnegative integer")
    kind = data.get("kind", "bergman" if "coefficients" not in data else "list")
    if kind == "bergman":
        if "coefficients" in data:
            _fail(f"{path}.coefficients", "the bergman kernel takes no coefficients")
        kernel = KernelCoefficients.bergman(truncation)
    elif kind == "list":
        raw = data.get("coefficients")
        if not isinstance(raw, list) or not raw:
            _fail(f"{path}.coefficients", "expected a nonempty array of {m, n, a} terms")
        terms = {}
        z_dim = w_dim = None
        for i, term in enumerate(raw):
            tpath = f"{path}.coefficients[{i}]"
            if not isinstance(term, dict) or not {"m", "n", "a"} <= set(term):
                _fail(tpath, "expected an object with 'm', 'n' and 'a'")
            check_keys(term, ("m", "n", "a"), tpath)
            m = parse_multi_index(term["m"], f"{tpath}.m")
            n = parse_multi_index(term["n"], f"{tpath}.n")
            z_dim = len(m) if z_dim is None else z_dim
            w_dim = len(n) if w_dim is None else w_dim
            terms[(m, n)] = parse_complex(term["a"], f"{tpath}.a")
        try:
            kernel = KernelCoefficients.from_terms(z_dim, w_dim, truncation, terms)
        except Exception as exc:
            _fail(path, str(exc))
    else:
        _fail(f"{path}.kind", f"unknown kernel kind {kind!r}")

    raw_f = data.get("f")
    if not isinstance(raw_f, list) or not raw_f:
        _fail(f"{path}.f", "expected a nonempty array of {m, b} terms")
    f_coefficients = {}
    for i, term in enumerate(raw_f):
        tpath = f"{path}.f[{i}]"
        if not isinstance(term, dict) or "m" not in term or "b" not in term:
            _fail(tpath, "expected an object with 'm' and 'b'")
        check_keys(term, ("m", "b"), tpath)
        f_coefficients[parse_multi_index(term["m"], f"{tpath}.m")] = parse_complex(term["b"], f"{tpath}.b")

    z_grid = None
    if "z_points" in data:
        if not isinstance(data["z_points"], list) or not data["z_points"]:
            _fail(f"{path}.z_points", "expected a nonempty array of points")
        z_grid = tuple(
            parse_point(p, f"{path}.z_points[{i}]") for i, p in enumerate(data["z_points"])
        )

    residual_tol = data.get("residual_tol", 1e-8)
    if isinstance(residual_tol, bool) or not isinstance(residual_tol, (int, float)) or residual_tol <= 0:
        _fail(f"{path}.residual_tol", "expected a positive number")
    return kernel, f_coefficients, z_grid, float(residual_tol)


def parse_pair_function(semigroup: Semigroup, data, path: str = "pd.pair_function"):
    """Explicit pair-function table: {"grid": [...], "values": [{"s","t","v"}, ...]}."""
    from .shifts import PairFunction

    if not isinstance(data, dict) or not isinstance(data.get("values"), list):
        _fail(path, "expected an object with a 'values' array")
    check_keys(data, ("grid", "values"), path)
    if not isinstance(data.get("grid"), list) or not data["grid"]:
        _fail(f"{path}.grid", "expected a nonempty array of elements")
    grid = parse_grid(semigroup, {"elements": data["grid"]}, path=f"{path}.grid")
    values = {}
    for i, entry in enumerate(data["values"]):
        epath = f"{path}.values[{i}]"
        if not isinstance(entry, dict) or not {"s", "t", "v"} <= set(entry):
            _fail(epath, "expected an object with 's', 't' and 'v'")
        check_keys(entry, ("s", "t", "v"), epath)
        s = parse_element(semigroup, entry["s"], f"{epath}.s")
        t = parse_element(semigroup, entry["t"], f"{epath}.t")
        values[(s, t)] = parse_complex(entry["v"], f"{epath}.v")
    return PairFunction(grid, values)


def parse_element_pairs(semigroup: Semigroup, data, path: str = "pd.points") -> list:
    """Probe points as [{"s", "t"}, ...], a nonempty array."""
    if not isinstance(data, list) or not data:
        _fail(path, "expected a nonempty array of {s, t} objects")
    pairs = []
    for i, entry in enumerate(data):
        epath = f"{path}[{i}]"
        if not isinstance(entry, dict):
            _fail(epath, "expected an object with 's' and 't'")
        check_keys(entry, ("s", "t"), epath)
        pairs.append(tuple(_element_field(semigroup, entry, key, epath) for key in ("s", "t")))
    return pairs


def parse_generator(semigroup: Semigroup, data, path: str = "pd.generator") -> tuple:
    """The (a, b) pair of an admissible generator: {"a", "b"}."""
    if not isinstance(data, dict):
        _fail(path, "expected an object with 'a' and 'b'")
    check_keys(data, ("a", "b"), path)
    return tuple(_element_field(semigroup, data, key, path) for key in ("a", "b"))


def _element_field(semigroup: Semigroup, data: dict, key: str, path: str):
    if key not in data:
        _fail(f"{path}.{key}", "missing")
    return parse_element(semigroup, data[key], f"{path}.{key}")


def parse_shift_operators(semigroup: Semigroup, data, path: str = "pd.operators"):
    """Operators as term lists: [[{"a","b","coeff"}, ...], ...]."""
    from .shifts import ShiftCombination

    if not isinstance(data, list) or not data:
        _fail(path, "expected a nonempty array of term lists")
    operators = []
    for i, raw_terms in enumerate(data):
        opath = f"{path}[{i}]"
        if not isinstance(raw_terms, list) or not raw_terms:
            _fail(opath, "expected a nonempty term list")
        terms = []
        for j, term in enumerate(raw_terms):
            tpath = f"{opath}[{j}]"
            if not isinstance(term, dict) or not {"a", "b", "coeff"} <= set(term):
                _fail(tpath, "expected an object with 'a', 'b' and 'coeff'")
            check_keys(term, ("a", "b", "coeff"), tpath)
            terms.append(
                (
                    parse_element(semigroup, term["a"], f"{tpath}.a"),
                    parse_element(semigroup, term["b"], f"{tpath}.b"),
                    parse_complex(term["coeff"], f"{tpath}.coeff"),
                )
            )
        operators.append(ShiftCombination(tuple(terms)))
    return operators


SCENARIO_KEYS = (
    "semigroup", "measure", "symbol", "grid", "tolerances", "toeplitz", "prony", "pd", "random_vector", "kernel"
)


@dataclass
class Scenario:
    """Parsed scenario: the engine inputs plus the raw command sections."""

    semigroup: Semigroup
    measure: AtomicMeasure
    symbol: Symbol
    grid: EvaluationGrid
    tolerances: Tolerances
    raw: dict


def parse_scenario(data, grid_order: int = None, tol_overrides: dict = None) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")
    check_keys(data, SCENARIO_KEYS, "")
    semigroup = measure = grid = None
    if "semigroup" in data:
        semigroup = parse_semigroup(data["semigroup"])
        if "measure" in data:
            measure = parse_measure(semigroup, data["measure"])
        grid = parse_grid(semigroup, data.get("grid"), order_override=grid_order)
    symbol = parse_symbol(data.get("symbol"), semigroup=semigroup) if "symbol" in data else Symbol.constant(1)
    tolerances = parse_tolerances(data.get("tolerances"), overrides=tol_overrides)
    return Scenario(semigroup, measure, symbol, grid, tolerances, data)


def load_scenario(source_path: str, grid_order: int = None, tol_overrides: dict = None) -> Scenario:
    try:
        with open(source_path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    return parse_scenario(parse_json(text), grid_order=grid_order, tol_overrides=tol_overrides)
