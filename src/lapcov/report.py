"""Deterministic JSON emission for reports.

Floats are printed with 17 significant digits (full round-trip precision),
dict keys keep insertion order, and lists of scalars stay on one line, so a
given report serializes to identical bytes on every run.

Reports carry long lists of same-shape records (transform values, gamma
tables, per-element rows).  A command hands such a list over as a ``Table``
of columns, and ``dumps`` writes it as the list of records
``Table.records()`` would give, filling one record template with a single
``%`` call per chunk of 256 records; the chunks are lines of the report,
so the one final join copies each of them once.  A float array column goes
to ``%.17g`` specifiers directly (one per record, or one fixed-width list
per row; a complex array is one ``[re, im]`` pair per record), after one
finiteness check and, a chunk at a time, ``+ 0.0``, which turns -0.0 into
the 0.0 that ``format_float`` writes.  An integer
array column (grid labels) goes to ``%d`` specifiers the same way, with no
check.  A ``Ragged`` column (an inner ``Table`` and row bounds: Prony's
atom lists) formats all inner records the same way in one more ``%`` call
and writes ``[]`` for an empty row.  Any other column is written value by
value: a flat list of exact scalar types in one join, anything else through
the general recursive path.  When anything in a table fails, the table goes
record by record through the general path, which raises the first error in
record order.
"""

import numpy as np


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


class Table:
    """Same-shape records given as columns: record i maps ``keys[j]`` to the i-th value of ``columns[j]``.

    A column is a float or integer ndarray (1-D: one number per record; 2-D:
    one list of numbers per record), a complex ndarray (one ``[re, im]`` pair
    per record), a ``Ragged`` column (one list of records per record) or any
    other sequence of report values.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys, columns):
        self.keys = tuple(keys)
        self.columns = tuple(columns)
        if len(self.keys) != len(self.columns) or len(set(map(len, self.columns))) > 1:
            raise ValueError("a table needs one column per key, all of one length")

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def records(self) -> list:
        """The records as dicts, with array entries as Python floats or ints and ``[re, im]`` lists."""
        return [dict(zip(self.keys, values)) for values in zip(*map(_values, self.columns))]


class Ragged:
    """A table column whose i-th value is the list of ``table``'s records ``bounds[i]:bounds[i + 1]``."""

    __slots__ = ("table", "bounds")

    def __init__(self, table: Table, bounds):
        self.table, self.bounds = table, list(bounds)

    def __len__(self) -> int:
        return len(self.bounds) - 1


def _values(column):
    """A column's values as a ``Table`` record holds them."""
    if isinstance(column, Ragged):
        records = column.table.records()
        return [records[a:b] for a, b in zip(column.bounds, column.bounds[1:])]
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "c":
            return np.stack((column.real, column.imag), axis=-1).tolist()
        if column.dtype.kind in "fiu":
            return column.tolist()
    return column


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
        last = len(value) - 1
        for i, item in enumerate(value):
            _emit(item, pad + "  ", lines, "", "," if i < last else "")
        lines.append(f"{pad}]{suffix}")
    elif isinstance(value, Table):
        chunks = _table(value, pad + "  ") if len(value) else None
        if chunks is None:
            _emit(value.records(), pad, lines, prefix, suffix)
        else:
            lines += (f"{pad}{prefix}[", *chunks, f"{pad}]{suffix}")
    else:
        lines.append(f"{pad}{prefix}{_scalar(value)}{suffix}")


# records per ``%`` call: a longer table is formatted chunk by chunk, so no format string or
# argument tuple as long as the whole table is built next to the text
_CHUNK = 256


def _table(table: Table, pad: str):
    """The lines of a table's records at ``pad`` as one text per chunk of records, or None when a value fails.

    Every chunk but the last ends in the comma that separates it from the
    next, so the chunks are lines of the report.
    """
    try:
        record, slots = _template(table, pad)
    except (TypeError, ValueError):
        return None
    count = len(table)
    parts = []
    if count > _CHUNK:
        chunk = ",\n".join([record] * _CHUNK) + ","
        parts = [chunk % _arguments(slots, start, start + _CHUNK) for start in range(0, count - _CHUNK, _CHUNK)]
    last = count - _CHUNK * len(parts)
    parts.append(",\n".join([record] * last) % _arguments(slots, count - last, count))
    return parts


def _template(table: Table, pad: str):
    """One record's ``%`` template at ``pad`` and its slots; TypeError or ValueError when a value fails.

    A slot holds one specifier's argument for every record: a 1-D number
    array, converted a chunk at a time by ``_arguments``, or a list of texts.
    """
    fragments = []
    slots = []
    for column in table.columns:
        numbers = _numbers(column)
        if numbers is None:
            fragments.append("%s")
            if isinstance(column, Ragged):
                slots.append(_rows(column, pad + "  "))
            else:
                slots.append([_text(value, pad + "  ") for value in column])
        elif column.dtype.kind in "iu" or np.isfinite(column).all():
            fragments.append(numbers[0])
            slots += numbers[1]
        else:
            raise ValueError("reports must contain finite numbers only")
    body = ",\n".join(
        f"{pad}  {_escape(str(key)).replace('%', '%%')}: {fragment}" for key, fragment in zip(table.keys, fragments)
    )
    return f"{pad}{{\n{body}\n{pad}}}", slots


def _arguments(slots: list, start: int, stop: int) -> tuple:
    """The ``%`` arguments of records ``start:stop``, record by record.

    A float slot gets ``+ 0.0``, which turns -0.0 into the 0.0 that
    ``format_float`` writes.
    """
    columns = []
    for slot in slots:
        part = slot[start:stop]
        if isinstance(part, np.ndarray):
            part = (part + 0.0 if part.dtype.kind == "f" else part).tolist()
        columns.append(part)
    args = [None] * (len(columns) * (stop - start))
    for i, column in enumerate(columns):
        args[i :: len(columns)] = column
    return tuple(args)


def _rows(column: Ragged, pad: str) -> list:
    """Each value of a ragged column as a list written at ``pad``, from one ``%`` call over all its inner records."""
    record, slots = _template(column.table, pad + "  ")
    bounds = column.bounds
    # "\0" is never written: _escape turns control characters into \u escapes
    rows = ["[\n" + ",\n".join([record] * (b - a)) + f"\n{pad}]" if b > a else "[]" for a, b in zip(bounds, bounds[1:])]
    return ("\0".join(rows) % _arguments(slots, 0, len(column.table))).split("\0")


def _numbers(column):
    """(template fragment, 1-D parts) of a float, integer or complex array column, or None for any other column."""
    if not isinstance(column, np.ndarray):
        return None
    kind, ndim = column.dtype.kind, column.ndim
    spec = "%d" if kind in "iu" else "%.17g"
    if kind in "fiu" and ndim == 1:
        return spec, (column,)
    if kind in "fiu" and ndim == 2:
        parts = tuple(column.T)
    elif kind == "c" and ndim == 1:
        parts = (column.real, column.imag)
    else:
        return None
    return "[" + ", ".join([spec] * len(parts)) + "]", parts


def _text(value, pad: str) -> str:
    """A value written at ``pad`` as by ``_emit``, without its first line's pad."""
    emit = _SCALARS.get(type(value))
    if emit is not None:
        return emit(value)
    if type(value) is list and _SCALAR_KINDS.issuperset(map(type, value)):
        return "[" + ", ".join([_SCALARS[type(item)](item) for item in value]) + "]"
    lines = []
    _emit(value, pad, lines, "", "")
    return "\n".join(lines)[len(pad) :]


def dumps(report: dict) -> str:
    """Serialize a report to deterministic, pretty-printed JSON (with newline)."""
    lines = []
    _emit(report, "", lines, "", "")
    lines.append("")  # the final newline, written by the one join
    return "\n".join(lines)
