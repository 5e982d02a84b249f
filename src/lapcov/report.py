"""Deterministic JSON emission for reports.

Floats are printed with 17 significant digits (full round-trip precision),
dict keys keep insertion order, and lists of scalars stay on one line, so a
given report serializes to identical bytes on every run.

Reports carry long lists of same-shape records (transform values, gamma
tables, per-element rows).  Such a table is written column by column: each
key's values are gathered and checked with whole-column passes (exact types,
list lengths, finite floats), and only when every column has passed is the
table filled by one ``%`` call over a record template.  Float and int
columns, and columns of equal-length number lists, go to ``%.17g`` and ``%d``
specifiers directly; a list object that recurs in a column (a grid label
shared by many records) is written once.  A table with any other value,
including subclasses of the built-in types, goes record by record through
the general recursive path, which writes the same bytes and fails on the
same first value.
"""

import functools
from itertools import chain
from math import isfinite


def format_float(value: float) -> str:
    if value == 0.0:
        return "0"  # canonicalize -0.0
    text = "%.17g" % value
    if "n" in text:  # inf, -inf or nan
        raise ValueError("reports must contain finite numbers only")
    return text


def encode_complex(value) -> list:
    z = complex(value)
    return [z.real, z.imag]


_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: "\\u%04x" % c for c in range(0x20)}}


def _escape(text: str) -> str:
    return '"' + text.translate(_ESCAPES) + '"'


# formatters for the exact built-in scalar types; subclasses take _scalar's checks
_SCALARS = {
    float: format_float,
    int: int.__repr__,
    str: _escape,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}
_SCALAR_KINDS = frozenset(_SCALARS)
_NUMBERS = frozenset((float, int))
_FLOAT = frozenset((float,))
_INT = frozenset((int,))
_STR = frozenset((str,))
_DICT = frozenset((dict,))
_SEQUENCES = frozenset((list, tuple))

# A list of fewer records goes record by record through _emit: there the
# table's fixed checks cost more than they save.  Per list of records with two
# 2-float lists (prony's atoms), best of 25 x 2000 calls on a 2-core Xeon VM,
# _emit vs the column path: 1 record 8.2 vs 14.5 us, 2 records 15.8 vs 17.3
# (27.3 vs 26.0 in a second run), 3 records 23.9 vs 20.0, 8 records 64.9 vs 37.7.
_MIN_TABLE_RECORDS = 2


def _scalar(value) -> str:
    emit = _SCALARS.get(type(value))
    if emit is not None:
        return emit(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return _escape(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (int, float, str))


def _emit(value, pad: str, lines: list, prefix: str, suffix: str):
    if isinstance(value, dict):
        if not value:
            lines.append(f"{pad}{prefix}{{}}{suffix}")
            return
        lines.append(f"{pad}{prefix}{{")
        items = list(value.items())
        last = len(items) - 1
        for i, (key, item) in enumerate(items):
            _emit(item, pad + "  ", lines, _escape(str(key)) + ": ", "," if i < last else "")
        lines.append(f"{pad}}}{suffix}")
    elif isinstance(value, (list, tuple)):
        value = list(value)
        if _SCALAR_KINDS.issuperset(map(type, value)) or all(map(_is_scalar, value)):
            lines.append(f"{pad}{prefix}[{', '.join(map(_scalar, value))}]{suffix}")
            return
        lines.append(f"{pad}{prefix}[")
        table = _table(value, pad + "  ")
        if table is not None:
            lines.append(table)
        else:
            last = len(value) - 1
            for i, item in enumerate(value):
                _emit(item, pad + "  ", lines, "", "," if i < last else "")
        lines.append(f"{pad}]{suffix}")
    else:
        lines.append(f"{pad}{prefix}{_scalar(value)}{suffix}")


def _table(records: list, pad: str):
    """The lines of a list of same-shape records, joined, or None when it needs ``_emit``.

    Every record must be an exact ``dict`` with the first record's exact-str
    keys in the same order, and every key's column must pass ``_column``.
    """
    if len(records) < _MIN_TABLE_RECORDS or not (_DICT.issuperset(map(type, records)) and records[0]):
        return None
    keys = list(records[0])
    if set(map(len, records)) != {len(keys)}:
        return None
    flat = list(chain.from_iterable(records))
    if flat != keys * len(records) or not _STR.issuperset(map(type, flat)):
        return None
    fragments = []
    slots = []
    for column in zip(*map(dict.values, records)):
        written = _column(column)
        if written is None:
            return None
        fragments.append(written[0])
        slots += written[1]
    # interleave the slots record by record; a lazy slot writes its texts here
    args = [None] * (len(slots) * len(records))
    for i, slot in enumerate(slots):
        args[i :: len(slots)] = slot
    return ",\n".join([_template(pad, tuple(keys), tuple(fragments))] * len(records)) % tuple(args)


@functools.lru_cache(maxsize=64)
def _template(pad: str, keys: tuple, fragments: tuple) -> str:
    """One record's lines, with a ``%`` fragment in place of each key's value."""
    body = ",\n".join(
        f"{pad}  {_escape(key).replace('%', '%%')}: {fragment}" for key, fragment in zip(keys, fragments)
    )
    return f"{pad}{{\n{body}\n{pad}}}"


def _column(values: tuple):
    """(template fragment, slots) that write one key's values, or None when one needs ``_emit``.

    A slot holds one specifier's argument for every record.  Values pass when
    all are exact built-in scalars, or all are lists or tuples of them, and
    every float among them is finite.  Text slots are lazy, so nothing is
    formatted before the whole table has passed.
    """
    kinds = set(map(type, values))
    if kinds <= _SEQUENCES:
        return _list_column(values)
    if not (_SCALAR_KINDS.issuperset(kinds) and _finite(values, kinds)):
        return None
    if kinds == _FLOAT:
        return "%.17g", [_canonical(values)]
    if kinds == _INT:
        return "%d", [values]
    return "%s", [map(_scalar, values)]


def _list_column(values: tuple):
    """``_column`` for a column of lists and tuples."""
    objects = dict(zip(map(id, values), values))
    shared = len(objects) < len(values)
    items = list(chain.from_iterable(objects.values() if shared else values))
    kinds = set(map(type, items))
    if not (_SCALAR_KINDS.issuperset(kinds) and _finite(items, kinds)):
        return None
    lengths = set(map(len, values))
    if shared or len(lengths) > 1 or len(kinds) > 1 or not _NUMBERS.issuperset(kinds):
        return "%s", [map(_ListTexts(objects).__getitem__, map(id, values))]
    # one specifier per position of equal-length number lists
    length = lengths.pop()
    spec = "%d"
    if kinds == _FLOAT:
        spec, items = "%.17g", _canonical(items)
    return "[" + ", ".join([spec] * length) + "]", [items[j::length] for j in range(length)]


class _ListTexts(dict):
    """id -> one-line text of the list or tuple ``objects[id]``, written on first lookup."""

    def __init__(self, objects: dict):
        super().__init__()
        self.objects = objects

    def __missing__(self, key):
        text = self[key] = "[" + ", ".join(map(_scalar, self.objects[key])) + "]"
        return text


def _finite(values, kinds: set) -> bool:
    """Whether every float among ``values``, whose exact types are ``kinds``, is finite."""
    if float not in kinds:
        return True
    if len(kinds) > 1:
        values = [value for value in values if type(value) is float]
    return all(map(isfinite, values))


def _canonical(values):
    """``values`` with -0.0 as 0.0, so that ``%.17g`` writes what ``format_float`` does."""
    return [value + 0.0 for value in values] if 0.0 in values else values


def dumps(report: dict) -> str:
    """Serialize a report to deterministic, pretty-printed JSON (with newline)."""
    lines = []
    _emit(report, "", lines, "", "")
    return "\n".join(lines) + "\n"
