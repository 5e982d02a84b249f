"""Deterministic JSON emission for reports.

Floats are printed with 17 significant digits (full round-trip precision),
dict keys keep insertion order, and lists of scalars stay on one line, so a
given report serializes to identical bytes on every run.

Reports carry long lists of same-shape records (transform values, gamma
tables, per-element rows).  Such a list is written in one flat loop: the
indented key prefixes are built once per list, values are dispatched on
their exact type, and a scalar list that recurs (a grid label shared by many
records) is formatted once.  Anything else, including subclasses of the
built-in types, goes through the general recursive path, which writes the
same bytes.
"""


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
_STR = frozenset((str,))


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


def _emit(value, pad: str, lines: list, prefix: str, suffix: str, memo: dict):
    if isinstance(value, dict):
        if not value:
            lines.append(f"{pad}{prefix}{{}}{suffix}")
            return
        lines.append(f"{pad}{prefix}{{")
        items = list(value.items())
        last = len(items) - 1
        for i, (key, item) in enumerate(items):
            _emit(item, pad + "  ", lines, _escape(str(key)) + ": ", "," if i < last else "", memo)
        lines.append(f"{pad}}}{suffix}")
    elif isinstance(value, (list, tuple)):
        value = list(value)
        if all(map(_is_scalar, value)):
            lines.append(f"{pad}{prefix}[{', '.join(map(_scalar, value))}]{suffix}")
            return
        lines.append(f"{pad}{prefix}[")
        first = value[0]
        if type(first) is dict and first and _STR.issuperset(map(type, first)):
            lines.append(_records(value, pad + "  ", memo))
        else:
            last = len(value) - 1
            for i, item in enumerate(value):
                _emit(item, pad + "  ", lines, "", "," if i < last else "", memo)
        lines.append(f"{pad}]{suffix}")
    else:
        lines.append(f"{pad}{prefix}{_scalar(value)}{suffix}")


def _records(records: list, pad: str, memo: dict) -> str:
    """The lines of a list whose first item is a non-empty dict with str keys, joined.

    A record with exactly the first record's keys, in order, whose values are
    exact built-in scalars or lists/tuples of them, is filled into a template
    built once; any other record is written by ``_emit``.
    """
    keys = tuple(records[0])
    template = (
        f"{pad}{{\n"
        + ",\n".join(f"{pad}  " + _escape(key).replace("%", "%%") + ": %s" for key in keys)
        + f"\n{pad}}}"
    )
    scalars = _SCALARS
    texts = []
    for record in records:
        if type(record) is dict and tuple(record) == keys and _STR.issuperset(map(type, record)):
            parts = []
            for value in record.values():
                kind = type(value)
                emit = scalars.get(kind)
                if emit is not None:
                    parts.append(emit(value))
                    continue
                if kind is not list and kind is not tuple:
                    break
                text = memo.get(id(value))
                if text is None:
                    items = []
                    for item in value:
                        emit = scalars.get(type(item))
                        if emit is None:
                            break
                        items.append(emit(item))
                    else:
                        text = memo[id(value)] = "[" + ", ".join(items) + "]"
                    if text is None:
                        break
                parts.append(text)
            else:
                texts.append(template % tuple(parts))
                continue
        lines = []
        _emit(record, pad, lines, "", "", memo)
        texts.append("\n".join(lines))
    return ",\n".join(texts)


def dumps(report: dict) -> str:
    """Serialize a report to deterministic, pretty-printed JSON (with newline)."""
    lines = []
    # memo: id of a list or tuple in ``report`` -> its one-line text; the
    # report holds every such object for the whole call, so no id is reused
    _emit(report, "", lines, "", "", {})
    return "\n".join(lines) + "\n"
