"""report.dumps against the recursive reference emitter, byte for byte."""

import io
import json
import math
import os
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapcov.cli as cli
from lapcov.report import Ragged, Table, _scalar, dumps, format_float

from helpers import reference_dumps
from test_cli import GOLDEN, GOLDEN_CASES, SCENARIOS, build_argv


class ReversedItems(dict):
    """A dict subclass whose items() run against its key order."""

    def items(self):
        return list(reversed(list(super().items())))


class Shout(str):
    """A str subclass that equals its value but prints in upper case."""

    def __str__(self):
        return self.upper()


def captured_report(argv, monkeypatch):
    """The report object a CLI run hands to ``dumps``."""
    reports = []

    def capture(report):
        reports.append(report)
        return dumps(report)

    monkeypatch.setattr(cli, "dumps", capture)
    cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO())
    assert len(reports) == 1
    return reports[0]


@pytest.mark.parametrize("name,scenario,tail,expected_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_goldens_match_the_reference_emitter(name, scenario, tail, expected_code, monkeypatch):
    report = captured_report(build_argv(scenario, tail), monkeypatch)
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        golden = fh.read().decode("utf-8")
    assert reference_dumps(report) == golden
    assert dumps(report) == golden


# the other semigroup families: float labels (half_line) and int labels (nat_mult)
FAMILY_SCENARIOS = {
    "half_line.json": {
        "semigroup": {"kind": "half_line"},
        "measure": {"atoms": [{"point": [[0.8, 1.1]], "weight": [2.0, 0.0]}, {"point": [[0.3, -0.4]], "weight": [0.5, 0.25]}]},
    },
    "nat_mult.json": {
        "semigroup": {"kind": "nat_mult", "primes": 3},
        "measure": {"atoms": [{"point": [[0.5, 0.1], [0.3, 0.0], [0.2, -0.2]], "weight": [1.0, 0.0]}]},
    },
}


def scenario_path(scenario, tmp_path):
    if scenario not in FAMILY_SCENARIOS:
        return os.path.join(SCENARIOS, scenario)
    path = tmp_path / scenario
    path.write_text(json.dumps(FAMILY_SCENARIOS[scenario]))
    return str(path)


# the transform golden is a 4x4 table; these write large Tables (transform, gamma, per-element)
LARGE_REPORTS = (
    [("point_mass_natadd2.json", cmd, "8") for cmd in ("transform", "recover", "covariance", "toeplitz", "prony")]
    + [("two_atoms_natadd1.json", cmd, "8") for cmd in ("covariance", "toeplitz", "prony")]
    + [("half_line.json", "transform", "8"), ("nat_mult.json", "transform", "3")]
)


@pytest.mark.parametrize("scenario,cmd,order", LARGE_REPORTS, ids=[f"{s[:-5]}-{c}" for s, c, _ in LARGE_REPORTS])
def test_large_reports_match_the_reference_emitter(scenario, cmd, order, monkeypatch, tmp_path):
    report = captured_report([cmd, scenario_path(scenario, tmp_path), "--grid-order", order], monkeypatch)
    assert dumps(report) == reference_dumps(report)


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64("nan")], ids=repr)
def test_a_large_gamma_table_with_one_non_finite_value_fails_like_the_reference(bad, monkeypatch):
    report = captured_report(["recover", os.path.join(SCENARIOS, "point_mass_natadd2.json"), "--grid-order", "12"], monkeypatch)
    gamma = report["gamma"]
    values = gamma.columns[1].copy()  # the recovered table is read-only
    values.imag[len(values) // 2] = bad
    report["gamma"] = Table(gamma.keys, (gamma.columns[0], values))
    for emit in (dumps, reference_dumps):
        with pytest.raises(ValueError, match="finite numbers only"):
            emit(report)


def test_scalar_kinds_and_containers_match():
    label = [0, 1]
    report = {
        "kinds": [True, 1, 1.0, None, "1", -0.0, 0.0, np.float64(-0.0), np.float64(2.5)],
        "tuple": (1, (2.0, "x"), []),
        "empty": [[], {}, ()],
        'key "quoted" \\ \n\t%s': {"\x01": "a\"b\\c\x1f\x7f\u00e9"},
        "ordered": OrderedDict([("b", 1), ("a", [label])]),
        "subclasses": [ReversedItems([("a", 1), ("b", 2)]), {Shout("a"): 1, "b": 2}],
        3: {"non-str key": True},
        "records": [
            {"s": label, "t": label, "v": [0.5, -0.0]},
            {"s": label, "t": [1, 0], "v": (1.5, 2)},
            {"t": label, "s": label, "v": [0.5, 1.0]},
            {"s": label, "t": label},
            {"s": label, "t": label, "v": [0.5], "w": None},
            {"s": label, "t": label, "v": [[1.0]]},
            OrderedDict([("s", label), ("t", label), ("v", 1.0)]),
            ReversedItems([("s", label), ("t", label), ("v", 1.0)]),
            {Shout("s"): label, "t": label, "v": 1.0},
            {"s": label, "t": np.float64(1.0), "v": [np.float64(1.0)]},
            {"s": {}, "t": [], "v": {"deep": [{"x": 1}]}},
            [label, label],
            label,
        ],
    }
    assert dumps(report) == reference_dumps(report)


def table_variant(change):
    """Ten same-shape records (a shared label, fresh int lists, floats with -0.0, ints, mixed scalars); ``change`` edits them."""
    label = [0, 1]
    records = [
        {"s": label, "t": [i, 2], "v": [0.5 * i, -0.0], "n": i, "x": None if i % 2 else "a%"} for i in range(10)
    ]
    change(records)
    return {"table": records}


def _set(index, key, value):
    return lambda records: records[index].__setitem__(key, value)


TABLE_VARIANTS = {
    "plain": lambda records: None,
    "key subclass": lambda records: records.__setitem__(7, {Shout(k): v for k, v in records[7].items()}),
    "reordered keys": lambda records: records.__setitem__(7, dict(reversed(list(records[7].items())))),
    "ordered dict": lambda records: records.__setitem__(7, OrderedDict(records[7])),
    "dict subclass": lambda records: records.__setitem__(7, ReversedItems(records[7])),
    "np.float64": _set(7, "v", [np.float64(1.5), 0.0]),
    "bool among ints": _set(7, "n", True),
    "float among int lists": _set(7, "t", [1.5, 2]),
    "unequal lengths": _set(7, "v", [1.0]),
    "tuple": _set(7, "v", (1.0, 2.0)),
    "empty lists": lambda records: [record.__setitem__("v", []) for record in records],
    "nested": _set(7, "t", [[1]]),
    "dict column": lambda records: [record.__setitem__("t", {"a": 1.0}) for record in records],
}


@pytest.mark.parametrize("change", TABLE_VARIANTS.values(), ids=TABLE_VARIANTS)
def test_tables_match_the_reference(change):
    report = table_variant(change)
    assert dumps(report) == reference_dumps(report)


def _two_faults(records):
    records[3]["v"] = [math.nan, 0.0]  # the first fault in record order
    records[5]["s"] = object()  # an earlier column, a later record


@pytest.mark.parametrize(
    "change,error",
    [(_two_faults, ValueError), (_set(6, "n", np.int64(1)), TypeError), (_set(6, "x", 1j), TypeError), (_set(6, "v", [math.inf, 0.0]), ValueError)],
)
def test_tables_fail_on_the_first_bad_value_in_record_order(change, error):
    report = table_variant(change)
    assert outcome(dumps, report) is outcome(reference_dumps, report) is error


# ------------------------------------------------------------ Table


def ragged(counts, change=lambda columns: None):
    """A ragged column whose row i holds ``counts[i]`` inner records (complex, float and other columns); ``change`` edits the inner columns."""
    m = sum(counts)
    columns = {
        "position": np.array([complex(0.25 * j, -0.0 if j % 2 else 0.5) for j in range(m)], dtype=complex),
        "weight": np.array([-0.0 if j % 3 else 1.0 / (j + 1) for j in range(m)], dtype=float),
        "tag": [None if j % 2 else [j, -0.0] for j in range(m)],
    }
    change(columns)
    return Ragged(Table(columns, columns.values()), np.cumsum([0] + list(counts)).tolist())


def column_table(n, change=lambda columns: None):
    """``n`` records in the column kinds the commands use; ``change`` edits the columns."""
    label = [0, 1]
    columns = {
        "shared": [label] * n,  # one label object in every record
        "fresh": [[i, 2] for i in range(n)],
        "float": np.array([0.5 * i - 1.0 if i % 3 else -0.0 for i in range(n)], dtype=float),
        "rows": np.array([[-0.0, 1.0 / (i + 1), 1e300] for i in range(n)]).reshape(n, 3),
        "complex": np.array([complex(-0.0 if i % 2 else 0.1 * i, -0.0 if i % 3 else -i) for i in range(n)], dtype=complex),
        # grid labels: (n, 2) coordinates and 1-D integers
        "coordinates": np.array([[i, 2 * i - 3] for i in range(n)], dtype=np.int64).reshape(n, 2),
        "integers": np.arange(n, dtype=np.int64) * 2**40,
        "int": list(range(n)),
        "bool": [i % 2 == 0 for i in range(n)],
        "pair or None": [None if i % 2 else [0.25 * i, -0.0] for i in range(n)],
        "atoms": [
            [{"position": [0.5, -0.0], "weight": [float(i), 1.0]}] * (i % 3) + [{"position": [1.0, 2.0], "weight": [0.0, 0.0]}]
            for i in range(n)
        ],
        "float or None": [None if i % 2 else 1.5 * i for i in range(n)],
        "ragged": ragged([i % 5 for i in range(n)]),  # rows of 0-4 records
        'key "%s" \\': ["x%d" % i for i in range(n)],
    }
    change(columns)
    return Table(columns, columns.values())


def _put(key, index, value):
    def change(columns):
        columns[key] = columns[key].copy() if isinstance(columns[key], np.ndarray) else list(columns[key])
        columns[key][index] = value

    return change


def test_table_records_hold_python_values():
    records = column_table(3).records()
    assert records[0]["ragged"] == [] and records[2]["ragged"] == [
        {"position": [0.25, -0.0], "weight": -0.0, "tag": None},
        {"position": [0.5, 0.5], "weight": -0.0, "tag": [2, -0.0]},
    ]
    assert records[1]["float"] == -0.5 and type(records[1]["float"]) is float
    assert records[1]["rows"] == [-0.0, 0.5, 1e300]
    assert records[1]["complex"] == [-0.0, -0.0]
    assert records[0]["shared"] is records[1]["shared"]
    # text output renders records() value by value, and _scalar takes no numpy integers
    assert records[1]["coordinates"] == [1, -1] and records[1]["integers"] == 2**40
    assert all(type(x) is int for x in records[1]["coordinates"] + [records[1]["integers"]])
    with pytest.raises(TypeError):
        _scalar(np.int64(1))


# past 256 records a table is formatted chunk by chunk
@pytest.mark.parametrize("n", [0, 1, 2, 25, 256, 257, 600])
def test_tables_of_any_length_match_the_reference(n):
    report = {"table": column_table(n), "nested": [{"inner": column_table(n)}], "after": 1}
    assert dumps(report) == reference_dumps(report)


@pytest.mark.parametrize("index", [0, 255, 256, 599])
def test_a_long_table_fails_like_the_reference_in_any_chunk(index):
    report = {"table": column_table(600, _put("float", index, math.nan))}
    assert outcome(dumps, report) is outcome(reference_dumps, report) is ValueError


@pytest.mark.parametrize("counts", [[], [0], [0, 0, 0], [4], [1, 0, 2], [0, 1, 2, 3, 4], [3, 0, 0, 4, 0]], ids=str)
def test_ragged_columns_match_the_reference(counts):
    table = Table(("s", "atoms", "r"), (np.arange(len(counts)), ragged(counts), [float(c) for c in counts]))
    report = {"table": table, "ragged alone": Table(("atoms",), (ragged(counts),))}
    assert dumps(report) == reference_dumps(report)


TABLE_COLUMN_VARIANTS = {
    "2-D float, no columns": lambda columns: columns.__setitem__("rows", np.empty((5, 0))),
    "float32": lambda columns: columns.__setitem__("float", columns["float"].astype(np.float32)),
    "np.float64 scalars": lambda columns: columns.__setitem__("float", list(columns["float"])),
    "one label object per two records": lambda columns: columns.__setitem__("fresh", [columns["fresh"][i // 2] for i in range(5)]),
    "2-D complex": lambda columns: columns.__setitem__("complex", columns["complex"].reshape(5, 1)),
}


@pytest.mark.parametrize("change", TABLE_COLUMN_VARIANTS.values(), ids=TABLE_COLUMN_VARIANTS)
def test_table_column_variants_match_the_reference(change):
    report = {"table": column_table(5, change)}
    assert outcome(dumps, report) == outcome(reference_dumps, report)


TABLE_FAULTS = {
    "nan in a float column": (_put("float", 2, math.nan), ValueError),
    "inf in a 2-D float column": (_put("rows", 3, [0.0, math.inf, 1.0]), ValueError),
    "nan in a complex column": (_put("complex", 1, complex(0.0, math.nan)), ValueError),
    "object() in a later generic column": (_put("float or None", 2, object()), TypeError),
    "nan in a nested atoms list": (_put("atoms", 4, [{"position": [math.nan, 0.0]}]), ValueError),
    "nan in a ragged row": (lambda columns: columns.__setitem__("ragged", ragged([0, 1, 2, 3, 4], _put("weight", 4, math.nan))), ValueError),
    "inf in a ragged complex column": (lambda columns: columns.__setitem__("ragged", ragged([0, 1, 2, 3, 4], _put("position", 7, complex(math.inf, 0.0)))), ValueError),
    # the ragged column comes after "float": an inner fault in an earlier record still wins
    "object() in a ragged row first, nan later": (
        lambda columns: (_put("float", 3, math.nan)(columns), columns.__setitem__("ragged", ragged([0, 1, 2, 3, 4], _put("tag", 1, object())))),
        TypeError,
    ),
    "nan first, object() in a ragged row later": (
        lambda columns: (_put("float", 2, math.nan)(columns), columns.__setitem__("ragged", ragged([0, 1, 2, 3, 4], _put("tag", 6, object())))),
        ValueError,
    ),
    # np.bool_ values are not report scalars, and a bool array is not an integer column
    "a bool array": (lambda columns: columns.__setitem__("bool", np.arange(5) % 2 == 0), TypeError),
    # two faults in different records: the first in record order wins
    "nan first, object() later": (lambda columns: (_put("float", 1, math.nan)(columns), _put("pair or None", 3, object())(columns)), ValueError),
    "object() first, nan later": (lambda columns: (_put("float", 3, math.nan)(columns), _put("pair or None", 1, object())(columns)), TypeError),
}


@pytest.mark.parametrize("change,error", TABLE_FAULTS.values(), ids=TABLE_FAULTS)
def test_a_failing_table_fails_like_the_reference_over_its_records(change, error):
    report = {"table": column_table(5, change)}
    with pytest.raises(error) as raised:
        dumps(report)
    with pytest.raises(error) as expected:
        reference_dumps(report)
    assert str(raised.value) == str(expected.value)


def test_a_table_needs_one_column_per_key_of_one_length():
    with pytest.raises(ValueError):
        Table(("a", "b"), ([1, 2],))
    with pytest.raises(ValueError):
        Table(("a", "b"), ([1, 2], np.zeros(3)))


def test_format_float_canonicalizes_and_rejects_non_finite():
    assert format_float(-0.0) == "0"
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(np.float64(-1e300)) == "-1.0000000000000001e+300"
    for value in (math.inf, -math.inf, math.nan, np.float64("nan")):
        with pytest.raises(ValueError):
            format_float(value)


# ------------------------------------------------------------ property

KEYS = st.text(alphabet=st.sampled_from('ab"\\%\n\x00\x1f\u00e9'), max_size=3)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.sampled_from([0, 1, 1.0, True, -0.0, 0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(alphabet=st.sampled_from('xy"\\\n\x07\u00e9'), max_size=4),
)

BAD = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("inf"), np.int64(1), 1j, object(), b"x", {1, 2}])


def scalar_lists(leaves):
    return st.one_of(st.lists(leaves, max_size=4), st.lists(leaves, max_size=4).map(tuple))


@st.composite
def record_lists(draw, leaves, children):
    """Lists of same-shape records, with some later records changed in key order, key set or nesting."""
    keys = draw(st.lists(st.one_of(KEYS, st.integers(0, 3)), min_size=1, max_size=4, unique_by=str))
    shared = draw(st.lists(scalar_lists(leaves), min_size=1, max_size=3))
    value = st.one_of(
        leaves,
        scalar_lists(leaves),
        st.integers(0, len(shared) - 1).map(lambda i: shared[i]),  # one list object, many records
        children,
    )
    changes = st.sampled_from(["same"] * 4 + ["reorder", "drop", "add", "nest", "subclass", "key subclass"])
    records = []
    for i in range(draw(st.one_of(st.integers(1, 5), st.integers(8, 40)))):
        record = {key: draw(value) for key in keys}
        change = draw(changes) if i else "same"
        if change == "reorder":
            record = dict(reversed(list(record.items())))
        elif change == "drop":
            record.pop(keys[-1])
        elif change == "add":
            record["extra"] = draw(leaves)
        elif change == "nest":
            record[keys[0]] = [draw(scalar_lists(leaves))]
        elif change == "subclass":
            record = draw(st.sampled_from([OrderedDict, ReversedItems]))(record)
        elif change == "key subclass":
            record = {Shout(key) if isinstance(key, str) else key: item for key, item in record.items()}
        records.append(record)
    return records


FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(-0.0))

# odd values to put in tables: errors, subclasses of float, a bool among ints
TABLE_BAD = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.int64(1), np.float64(2.5), np.float64(-0.0), True, 1j, object()]
)


@st.composite
def column_values(draw, labels):
    """One kind of value for a whole column."""
    length = draw(st.integers(0, 3))
    return draw(
        st.sampled_from(
            [
                FINITE,
                st.integers(-(10**20), 10**20),
                SCALARS,
                st.lists(FINITE, min_size=length, max_size=length),
                st.lists(st.integers(0, 9), min_size=length, max_size=length).map(tuple),
                st.sampled_from(labels),  # one list object shared by many records
                st.lists(st.integers(0, 9), min_size=2, max_size=2),  # a fresh label per record
                scalar_lists(st.one_of(FINITE, st.integers(0, 9))),  # unequal lengths, mixed types
                st.dictionaries(KEYS, FINITE, max_size=2),  # nested values
                st.lists(st.lists(st.integers(0, 9), max_size=2), max_size=2),
            ]
        )
    )


@st.composite
def tables(draw, bad):
    """8-40 records whose columns each hold one kind of value, with up to three ``bad`` values put in."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=2), min_size=1, max_size=4))
    n = draw(st.integers(8, 40))
    columns = [draw(st.lists(draw(column_values(labels)), min_size=n, max_size=n)) for _ in keys]
    records = [{key: column[i] for key, column in zip(keys, columns)} for i in range(n)]
    for _ in range(draw(st.integers(0, 3)) if bad is not None else 0):
        record = records[draw(st.integers(0, n - 1))]
        key = draw(st.sampled_from(keys))
        if isinstance(record[key], list) and record[key] and draw(st.booleans()):
            record[key] = list(record[key])
            record[key][draw(st.integers(0, len(record[key]) - 1))] = draw(bad)
        else:
            record[key] = draw(bad)
    return records


@st.composite
def column_tables(draw, bad):
    """``Table``s of 0-12 records with float, 2-D float, complex and other columns, and up to two ``bad`` values put in."""
    n = draw(st.integers(0, 12))
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=2), min_size=1, max_size=4))
    floats = st.lists(FINITE, min_size=n, max_size=n)
    columns = []
    for _ in keys:
        kind = draw(st.sampled_from(["float", "rows", "complex", "ragged", "other"]))
        if kind == "float":
            column = np.array(draw(floats), dtype=float)
        elif kind == "rows":
            width = draw(st.integers(0, 3))
            column = np.array([draw(st.lists(FINITE, min_size=width, max_size=width)) for _ in range(n)]).reshape(n, width)
        elif kind == "complex":
            column = np.array([complex(re, im) for re, im in zip(draw(floats), draw(floats))], dtype=complex)
        elif kind == "ragged":
            counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
            inner = st.lists(FINITE, min_size=sum(counts), max_size=sum(counts))
            column = ragged(counts, lambda columns: columns.update(weight=np.array(draw(inner)), position=np.array(draw(inner)) * 1j))
        else:
            column = draw(st.lists(draw(column_values(labels)), min_size=n, max_size=n))
        columns.append(column)
    for _ in range(draw(st.integers(0, 2)) if bad is not None and n else 0):
        column = draw(st.sampled_from(columns))
        if isinstance(column, Ragged):  # a fault in one of its inner columns
            column = draw(st.sampled_from(column.table.columns))
        if not len(column):
            continue
        index = draw(st.integers(0, len(column) - 1))
        if not isinstance(column, np.ndarray):
            column[index] = draw(bad)
        elif column.size:
            column.reshape(len(column), -1)[index, 0] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return Table(keys, columns)


def reports(leaves, bad=None):
    def extend(children):
        return st.one_of(
            scalar_lists(children),
            st.dictionaries(st.one_of(KEYS, st.integers(0, 3)), children, max_size=4),
            st.dictionaries(KEYS, children, max_size=3).map(OrderedDict),
            st.dictionaries(KEYS, children, max_size=3).map(ReversedItems),
            record_lists(leaves, children),
            tables(bad),
            column_tables(bad),
        )

    return st.recursive(leaves, extend, max_leaves=30)


def outcome(emit, report):
    try:
        return emit(report)
    except (ValueError, TypeError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(reports(SCALARS))
def test_dumps_matches_reference_on_nested_reports(report):
    assert dumps(report) == reference_dumps(report)


@settings(max_examples=300, deadline=None)
@given(reports(st.one_of(SCALARS, SCALARS, BAD), bad=TABLE_BAD))
def test_dumps_fails_like_the_reference(report):
    assert outcome(dumps, report) == outcome(reference_dumps, report)
