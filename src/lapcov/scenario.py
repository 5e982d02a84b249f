"""Scenario-file parsing and the JSON encodings shared with reports.

Complex numbers are [re, im] pairs (a bare number is accepted as a real).
Elements are encoded per semigroup family: a list of ints for nat_add, an
int for nat_mult, a number for half_line.  Character points are arrays of
complex pairs.

Each JSON object of a scenario has one table in ``SECTIONS``: its keys, the
leaf parser of each, its required keys and its cross-field rules.  A leaf
raises ``Invalid`` with the failing position below its value and each table
prefixes its key, so a JSON path is formatted only when a value fails.
"""

import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .kernels import DEFAULT_TRUNCATION, KernelCoefficients, default_z_grid
from .laplace import EvaluationGrid, Tolerances, default_grid
from .measures import AtomicMeasure, Columns, Symbol
from .randomvectors import DiscreteRandomVector
from .semigroups import HALF_LINE, NAT_ADD, NAT_MULT, Semigroup, _check_entries, validate_element
from .shifts import PairFunction
from .toeplitz import DEFAULT_MATRIX_ORDER


class Invalid(Exception):
    """A value that its parser rejects: the message, and the JSON path below the parsed value."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(message)
        self.message = message
        self.where = where

    def at(self, step: str) -> "Invalid":
        self.where = step + self.where
        return self


def parse(leaf, value, path: str, semigroup: Semigroup = None):
    """``leaf(value, semigroup)``, a failure raised as a ScenarioError that names its path below ``path``."""
    try:
        return leaf(value, semigroup)
    except Invalid as exc:
        where = (path + exc.where).lstrip(".")
        raise ScenarioError(f"{where}: {exc.message}" if where else exc.message) from None


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


# digits to 0 and E to e: a long digit run or exponent is then a literal, and a search from "e" runs at C speed
_DIGIT_SHAPES = bytes.maketrans(b"123456789E", b"000000000e")
_LONG_EXPONENT = re.compile(rb"e[-+]?000")


def _within_float_range(text: str) -> bool:
    """True when no exponent has 3 digits and no 200 digits run on: every number is then below 1e200 * 1e99."""
    shapes = text.encode("utf-8", "surrogatepass").translate(_DIGIT_SHAPES)
    return b"0" * 200 not in shapes and not _LONG_EXPONENT.search(shapes)


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

    # a number that cannot overflow needs no hook: NaN and Infinity still reach parse_constant
    hooks = {} if _within_float_range(text) else {"parse_float": finite_float, "parse_int": finite_int}
    try:
        data = json.loads(text, parse_constant=non_finite, **hooks)
        if rejected:
            where, token = _non_finite_path(data, path)
            raise ScenarioError(f"{where or 'scenario'}: number {token} is not a finite float")
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting past the interpreter's limit
        raise ScenarioError(f"{path or 'scenario'}: not valid JSON: {exc}") from None
    return data


# ------------------------------------------------------------ leaf parsers

_NUMBERS = (int, float)  # exact types: a JSON bool is not a number here


def complex_number(value, semigroup=None) -> complex:
    if type(value) in _NUMBERS:
        return complex(float(value), 0.0)
    if type(value) is list and len(value) == 2 and type(value[0]) in _NUMBERS and type(value[1]) in _NUMBERS:
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, bool):
        raise Invalid("expected a complex number, got a boolean")
    raise Invalid("expected [re, im] (or a bare real number)")


def positive_int(value, semigroup=None) -> int:
    if type(value) is not int or value < 1:
        raise Invalid("expected a positive integer")
    return value


def nonnegative_int(value, semigroup=None) -> int:
    if type(value) is not int or value < 0:
        raise Invalid("expected a nonnegative integer")
    return value


def positive_number(value, semigroup=None) -> float:
    if type(value) not in _NUMBERS or not 0 < value < math.inf:
        raise Invalid("expected a positive number")
    try:
        return float(value)
    except OverflowError:  # an int past the float range, as a flag's text may spell
        raise Invalid("expected a positive number") from None


def fraction(value, semigroup=None) -> float:
    """A number in the open interval (0, 1): a relative tolerance of 1 or more would hold for everything."""
    if type(value) not in _NUMBERS or not 0 < value < 1:
        raise Invalid("expected a positive number below 1")
    return float(value)


def probability(value, semigroup=None) -> float:
    if type(value) not in _NUMBERS:
        raise Invalid("expected a probability")
    return float(value)


_ELEMENT_TYPES = {
    NAT_ADD: ((list,), "nat_add elements are arrays of nonnegative ints"),
    NAT_MULT: ((int,), "nat_mult elements are positive ints"),
    HALF_LINE: ((int, float), "half_line elements are nonnegative numbers"),
}


def element(value, semigroup: Semigroup):
    types, message = _ELEMENT_TYPES[semigroup.family]
    if isinstance(value, bool) or not isinstance(value, types):
        raise Invalid(message)
    if semigroup.family == NAT_ADD:
        for i, entry in enumerate(value):
            if type(entry) is not int:  # a fraction or a boolean, which int() would truncate
                raise Invalid("expected an integer", f"[{i}]")
    try:
        return validate_element(semigroup, value)
    except Exception as exc:
        raise Invalid(str(exc)) from None


def _no_coefficients(value, semigroup=None):
    raise Invalid("the bergman kernel takes no coefficients")


def element_to_json(semigroup: Semigroup, element):
    if semigroup.family == NAT_ADD:
        return [int(x) for x in element]
    if semigroup.family == NAT_MULT:
        return int(element)
    return float(element)


def point_to_json(point) -> list:
    return [[complex(z).real, complex(z).imag] for z in point]


# ------------------------------------------------------------ tables and the walker

# field defaults that are not values
REQUIRED = object()  # the object's shape needs the key
MISSING = object()   # an absent key is an error of its own
OPTIONAL = object()  # an absent key is left out


def _listing(keys) -> str:
    quoted = [f"'{key}'" for key in keys]
    return ", ".join(quoted[:-1]) + " and " + quoted[-1]


def check_keys(data: dict, keys: tuple):
    """Reject the first key of ``data`` that is not among ``keys``: a misspelt key is an error."""
    for key in data:
        if key not in keys:
            raise Invalid(f"unknown key; expected one of {', '.join(keys)}", f".{key}")


def _row(fields: dict, semigroup=None) -> tuple:
    return tuple(fields.values())


class Section:
    """The table of one JSON object; calling it walks a value against the table.

    ``fields`` maps each allowed key, in the order messages list them, to
    (leaf parser, default) or (leaf parser, default, the command-line flag
    that overrides the key); a ``None`` leaf keeps the value as given.  A
    default is ``REQUIRED``, ``MISSING``, ``OPTIONAL`` or a value that is
    parsed as if it were given (so ``None`` fails with the leaf's message).
    ``shape`` is the message for a value that is not an object, lacks a
    required key, or holds a required array without a message of its own
    that is not a list of the needed length.  Then come the unknown-key
    check, the ``exactly_one`` rule and the leaves, in field order; ``build``
    turns the parsed fields into the section's value, and a ValueError from
    it names the section.
    """

    def __init__(self, fields: dict, shape: str = None, exactly_one: tuple = (), build=None):
        self.fields = {key: spec[:2] for key, spec in fields.items()}
        self.flags = {key: spec[2] for key, spec in fields.items() if len(spec) == 3}
        self.keys = tuple(fields)
        # a required array without a message of its own is part of the shape
        self.required = [
            (key, leaf if isinstance(leaf, Array) and leaf.message is None else None)
            for key, (leaf, default) in self.fields.items()
            if default is REQUIRED
        ]
        if shape is None and self.required:
            shape = f"expected an object with {_listing([key for key, _ in self.required])}"
        self.shape = shape or "expected an object"
        self.exactly_one = exactly_one
        self.build = build

    def __call__(self, data, semigroup=None):
        if type(data) is not dict or not all(
            key in data and (array is None or array.fits(data[key])) for key, array in self.required
        ):
            raise Invalid(self.shape)
        check_keys(data, self.keys)
        if self.exactly_one and sum(key in data for key in self.exactly_one) != 1:
            raise Invalid(f"expected exactly one of {_listing(self.exactly_one)}")
        fields = {}
        for key, (leaf, default) in self.fields.items():
            if key in data:
                value = data[key]
            elif default is MISSING:
                raise Invalid("missing", f".{key}")
            elif default is OPTIONAL or default is REQUIRED:
                continue
            else:
                value = default
            try:
                fields[key] = leaf(value, semigroup) if leaf else value
            except Invalid as exc:
                raise exc.at(f".{key}") from None
        if self.build is None:
            return fields
        try:
            return self.build(fields, semigroup)
        except ValueError as exc:
            raise Invalid(str(exc)) from None


class Kinds:
    """A section whose ``kind`` picks its table; ``default`` gives the kind of an object without one."""

    def __init__(self, noun: str, tables: dict, default=None):
        self.noun = noun
        self.tables = tables
        self.default = default
        self.shape = "expected an object" if default else "expected an object with a 'kind' field"
        self.flags = {}  # no key of a kind's table has a command-line flag

    def __call__(self, data, semigroup=None):
        if type(data) is not dict or ("kind" not in data and self.default is None):
            raise Invalid(self.shape)
        kind = data["kind"] if "kind" in data else self.default(data)
        table = self.tables.get(kind) if isinstance(kind, str) else None
        if table is None:
            raise Invalid(f"unknown {self.noun} kind {kind!r}", ".kind")
        return table(data, semigroup)


class Array:
    """A JSON array, nonempty unless ``nonempty`` is false, parsed item by item to a tuple.

    ``item`` is a leaf, or a dict (key -> leaf) of rows: objects with exactly
    those keys, each read to the tuple of its values.  Rows are read column
    by column, in one pass per key: a leaf with a column reader in
    ``_COLUMNS`` reads the whole column to an array with type checks over the
    list, any other leaf is called once per row, and ``build`` (default: the
    tuple of rows) makes the value from the columns.  When a row does not
    fit, the array goes through the row's ``Section``, which names the fault
    and gives the tuple of rows.  ``message`` is the error for anything else;
    without one, a required array is part of its section's shape.
    """

    def __init__(self, item, message: str = None, nonempty: bool = True, build=None):
        self.rows = tuple(item.items()) if isinstance(item, dict) else None
        if self.rows:
            item = Section({key: (leaf, REQUIRED) for key, leaf in self.rows}, build=_row)
        self.item = item
        self.message = message
        self.nonempty = nonempty
        self.build = build or (lambda *columns: tuple(Columns(*columns)))

    def fits(self, value) -> bool:
        return type(value) is list and (bool(value) or not self.nonempty)

    def __call__(self, value, semigroup=None) -> tuple:
        if not self.fits(value):
            raise Invalid(self.message)
        if self.rows:
            rows = self._columns(value, semigroup)
            if rows is not None:
                return rows
        parsed = []
        for i, item in enumerate(value):
            try:
                parsed.append(self.item(item, semigroup))
            except Invalid as exc:
                raise exc.at(f"[{i}]") from None
        return tuple(parsed)

    def _columns(self, value: list, semigroup):
        """The rows read column by column, or None when one does not fit."""
        if set(map(type, value)) != {dict} or set(map(len, value)) != {len(self.rows)}:
            return None
        columns = []
        for key, leaf in self.rows:
            try:
                column = [row[key] for row in value]
                read = _COLUMNS.get(leaf)
                column = read(column) if read else [leaf(item, semigroup) for item in column]
            except (Invalid, KeyError):
                return None
            if column is None:
                return None
            columns.append(column)
        return self.build(*columns)


# ------------------------------------------------------------ column readers

def _complex_column(values: list):
    """``complex_number`` of each value as a complex array, or None when one is not an [re, im] pair or a bare real."""
    kinds = set(map(type, values))
    if kinds != {list}:
        if not kinds <= {list, int, float}:
            return None
        values = [value if type(value) is list else [value, 0.0] for value in values]
    if set(map(len, values)) != {2}:
        return None
    numbers = list(itertools.chain.from_iterable(values))
    kinds = set(map(type, numbers))
    if not kinds <= {int, float}:
        return None
    if int in kinds:
        numbers = list(map(float, numbers))
    return np.array(numbers, dtype=float).view(complex)


def _point_column(values: list):
    """``point`` of each value as the rows of a complex array, or None when one does not fit or the lengths differ."""
    if set(map(type, values)) != {list}:
        return None
    lengths = set(map(len, values))
    if len(lengths) != 1 or 0 in lengths:
        return None
    coordinates = _complex_column(list(itertools.chain.from_iterable(values)))
    return None if coordinates is None else coordinates.reshape(len(values), lengths.pop())


def _probability_column(values: list):
    """``probability`` of each value as a float array, or None when one is not a number."""
    return np.array(list(map(float, values))) if set(map(type, values)) <= {int, float} else None


point = Array(complex_number, "expected a nonempty array of complex coordinates")
multi_index = Array(nonnegative_int, "expected a multi-index array", nonempty=False)
_COLUMNS = {complex_number: _complex_column, point: _point_column, probability: _probability_column}


def point_index(value, semigroup=None) -> tuple:
    """A multi-index over character-point coordinates: as long as the semigroup's points, when there is one."""
    index = multi_index(value)
    if semigroup is not None and len(index) != semigroup.point_dim:
        raise Invalid(f"expected a multi-index of length {semigroup.point_dim}")
    return index


def _series(terms) -> dict:
    """index -> coefficient of a series given as (index, coefficient) terms: the terms of a repeated index add up."""
    coefficients = {}
    for index, c in terms:
        coefficients[index] = coefficients[index] + c if index in coefficients else c
    return coefficients


def _lookup(pairs, key: str, noun: str) -> dict:
    """The dict of (``noun``, value) pairs of array ``key``: a ``noun`` given twice fails at its second entry."""
    table = {}
    for i, (lookup, value) in enumerate(pairs):
        if lookup in table:
            raise Invalid(f"repeats an earlier entry's {noun}", f".{key}[{i}]")
        table[lookup] = value
    return table


def _lengths(items, length: int, noun: str, where: str):
    """Fail at the first of ``items`` whose length is not ``length``; item i is at path ``where.format(i)``."""
    for i, item in enumerate(items):
        if len(item) != length:
            raise Invalid(f"expected a {noun} of length {length}", where.format(i))


def _kernel(fields: dict, semigroup=None) -> dict:
    """The kernel section with its coefficients built (listed only under "list"), ``f`` as a dict and z points.

    Every ``f`` index and z point has the kernel's z length, and the kernel's
    w length is the semigroup's point length, when there is a semigroup.
    """
    terms, truncation, z_points = fields.get("coefficients"), fields["truncation"], fields.get("z_points")
    if terms is None:
        if semigroup is not None and semigroup.point_dim != 1:
            raise Invalid(f"the bergman kernel needs points of length 1; the semigroup's have length {semigroup.point_dim}")
        # kernel_eval sums every term at every probe point: refuse a truncation too long to sum before building it
        probes = len(z_points or default_z_grid())
        _check_entries((truncation + 1) * probes, f"a bergman kernel of {truncation + 1} terms at {probes} points")
        coefficients = KernelCoefficients.bergman(truncation)
    else:
        if semigroup is not None:
            _lengths([n for _, n, _ in terms], semigroup.point_dim, "multi-index", ".coefficients[{}].n")
        terms_by_index = _series(((m, n), a) for m, n, a in terms)
        coefficients = KernelCoefficients.from_terms(len(terms[0][0]), len(terms[0][1]), truncation, terms_by_index)
    _lengths([m for m, _ in fields["f"]], coefficients.z_dim, "multi-index", ".f[{}].m")
    z_points = z_points or default_z_grid(coefficients.z_dim)
    _lengths(z_points, coefficients.z_dim, "point", ".z_points[{}]")
    return dict(fields, coefficients=coefficients, f=_series(fields["f"]), z_points=z_points)


_KIND = (None, OPTIONAL)  # ``Kinds`` reads it before the walk
_ELEMENTS = Array(element, "expected a nonempty array of elements")
# the kernel keys of both kinds, in message order; each kind sets "coefficients"
_KERNEL = {
    "kind": _KIND,
    "truncation": (nonnegative_int, DEFAULT_TRUNCATION),
    "coefficients": None,
    "f": (Array({"m": multi_index, "b": complex_number}, "expected a nonempty array of {m, b} terms"), None),
    "z_points": (Array(point, "expected a nonempty array of points"), OPTIONAL),
    "residual_tol": (positive_number, 1e-8),
}

SECTIONS = {
    "semigroup": Kinds("semigroup", {
        NAT_ADD: Section({"kind": _KIND, "d": (positive_int, 1)}, build=lambda f, sg: Semigroup(NAT_ADD, f["d"])),
        NAT_MULT: Section(
            {"kind": _KIND, "primes": (positive_int, 1)}, build=lambda f, sg: Semigroup(NAT_MULT, f["primes"])
        ),
        HALF_LINE: Section({"kind": _KIND}, build=lambda f, sg: Semigroup(HALF_LINE)),
    }),
    "measure": Section(
        {"atoms": (Array({"point": point, "weight": complex_number}, build=Columns), REQUIRED)},
        shape="expected an object with a nonempty 'atoms' array",
        build=lambda f, sg: AtomicMeasure(sg, f["atoms"]),
    ),
    "symbol": Kinds("symbol", {
        "const": Section(
            {"kind": _KIND, "value": (complex_number, 1)}, build=lambda f, sg: Symbol.constant(f["value"])
        ),
        "poly": Section(
            {"kind": _KIND, "terms": (Array({"m": point_index, "c": complex_number},
                                            "expected an array of {m, c} terms", nonempty=False), None)},
            build=lambda f, sg: Symbol.polynomial(_series(f["terms"])),
        ),
        "table": Section(
            {"kind": _KIND, "entries": (Array({"point": point, "value": complex_number},
                                              "expected an array of {point, value} entries", nonempty=False), None)},
            build=lambda f, sg: Symbol.table(_lookup(f["entries"], "entries", "point")),
        ),
    }),
    "grid": Section(
        {"order": (positive_int, OPTIONAL, "--grid-order"), "elements": (_ELEMENTS, OPTIONAL)},
        exactly_one=("order", "elements"),
    ),
    "tolerances": Section({
        "mass": (fraction, OPTIONAL, "--tol-mass"),
        "residual": (positive_number, OPTIONAL, "--tol-res"),
        "rank": (fraction, OPTIONAL, "--rank-tol"),
    }),
    # command sections: each is checked only when its command runs
    "toeplitz": Section({"matrix_order": (positive_int, DEFAULT_MATRIX_ORDER, "--matrix-order")}),
    "prony": Section({"k_max": (positive_int, 6, "--k-max")}),
    "pd": Section(
        {
            "pair_function": (Section(
                {"grid": (_ELEMENTS, None),
                 "values": (Array({"s": element, "t": element, "v": complex_number}, nonempty=False), REQUIRED)},
                shape="expected an object with a 'values' array",
                build=lambda f, sg: PairFunction(
                    EvaluationGrid(sg, f["grid"]),
                    _lookup((((s, t), v) for s, t, v in f["values"]), "values", "(s, t)"),
                ),
            ), OPTIONAL),
            "points": (Array(Section({"s": (element, MISSING), "t": (element, MISSING)},
                                     "expected an object with 's' and 't'", build=_row),
                             "expected a nonempty array of {s, t} objects"), OPTIONAL),
            "operators": (Array(Array({"a": element, "b": element, "coeff": complex_number},
                                      "expected a nonempty term list"),
                                "expected a nonempty array of term lists"), OPTIONAL),
            "generator": (Section({"a": (element, MISSING), "b": (element, MISSING)},
                                  "expected an object with 'a' and 'b'", build=_row), OPTIONAL),
        },
    ),
    "random_vector": Section(
        {"outcomes": (Array({"p": probability, "x": point, "y": complex_number}, build=Columns), REQUIRED),
         "max_order": (positive_int, 3)},
        shape="expected an object with a nonempty 'outcomes' array",
        build=lambda f, sg: dict(f, outcomes=DiscreteRandomVector(f["outcomes"])),
    ),
    "kernel": Kinds(
        "kernel",
        {
            "bergman": Section(dict(_KERNEL, coefficients=(_no_coefficients, OPTIONAL)), build=_kernel),
            "list": Section(dict(_KERNEL, coefficients=(Array({"m": multi_index, "n": multi_index, "a": complex_number},
                                                              "expected a nonempty array of {m, n, a} terms"), None)),
                            build=_kernel),
        },
        default=lambda data: "bergman" if "coefficients" not in data else "list",
    ),
}
SCENARIO = Section({name: (None, OPTIONAL) for name in SECTIONS}, shape="scenario root must be a JSON object")


def _given_section(raw: dict, name: str, semigroup: Semigroup = None):
    """Section ``name`` walked against its table, or None when it is missing (its defaults then hold)."""
    return parse(SECTIONS[name], raw[name], name, semigroup) if name in raw else None


def _flag_value(value):
    """A flag's text as the number it spells, an int before a float (so nan, inf and 1e999 are floats), else as given."""
    if isinstance(value, str):
        for number in (int, float):
            try:
                return number(value)
            except ValueError:
                pass
    return value


def _laid_over(fields: dict, name: str, flags: dict) -> dict:
    """``fields`` of section ``name``, each key's flag that ``flags`` gives laid over the key by its leaf parser."""
    table = SECTIONS[name]
    for key, flag in table.flags.items():
        if flags.get(flag) is not None:
            fields[key] = parse(table.fields[key][0], _flag_value(flags[flag]), flag)
    return fields


@dataclass
class Scenario:
    """Parsed scenario: the engine inputs, the raw command sections and the command-line flags."""

    semigroup: Semigroup
    measure: AtomicMeasure
    symbol: Symbol
    grid: EvaluationGrid
    tolerances: Tolerances
    raw: dict
    flags: dict

    def section(self, name: str) -> dict:
        """Command section ``name``, checked against its table when the command runs, with its flags laid over it."""
        if name in ("random_vector", "kernel") and self.raw.get(name) is None:  # the others default to {}
            raise ScenarioError(f"this command needs a '{name}' section")
        return _laid_over(parse(SECTIONS[name], self.raw.get(name, {}), name, self.semigroup), name, self.flags)


def parse_scenario(data, flags: dict = None) -> Scenario:
    """The scenario ``data`` under ``flags``: a flag, as ``SECTIONS`` spells it, -> its text or None."""
    flags = flags or {}
    raw = parse(SCENARIO, data, "")
    for name in ("measure", "grid", "symbol"):
        if name in raw and "semigroup" not in raw:
            raise ScenarioError(f"{name}: needs a 'semigroup' section")
    semigroup = measure = grid = None
    if "semigroup" in raw:
        semigroup = parse(SECTIONS["semigroup"], raw["semigroup"], "semigroup")
        if "measure" in raw:
            measure = parse(SECTIONS["measure"], raw["measure"], "measure", semigroup)
        fields = _laid_over(_given_section(raw, "grid", semigroup) or {}, "grid", flags)
        if "elements" in fields and "order" not in fields:  # a grid order flag replaces the elements
            grid = EvaluationGrid(semigroup, fields["elements"])
        else:
            grid = default_grid(semigroup, order=fields.get("order"))
    symbol = _given_section(raw, "symbol", semigroup) or Symbol.constant(1)
    tolerances = Tolerances(**_laid_over(_given_section(raw, "tolerances") or {}, "tolerances", flags))
    return Scenario(semigroup, measure, symbol, grid, tolerances, raw, flags)


def load_scenario(source_path: str, flags: dict = None) -> Scenario:
    try:
        with open(source_path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    return parse_scenario(parse_json(text), flags)
