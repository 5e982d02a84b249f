"""The hook-free parse of scenario JSON gives what the checked parse gives.

``parse_json`` decodes numbers without a Python hook when its screen,
``_within_float_range``, rules out overflow, and with a finiteness hook on
every number otherwise.  Forcing the screen to fail runs the checked parse on
any text, so the two can be compared value by value, type by type and bit by
bit.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapcov import scenario
from lapcov.errors import ScenarioError
from lapcov.scenario import _within_float_range, parse_json


def checked_parse(text: str):
    original = scenario._within_float_range
    scenario._within_float_range = lambda text: False
    try:
        return parse_json(text)
    finally:
        scenario._within_float_range = original


def outcome(parse, text: str):
    """The parsed value, or the message of the ScenarioError it raised."""
    try:
        return parse(text)
    except ScenarioError as exc:
        return ScenarioError, str(exc)


def same(a, b) -> bool:
    """Equal values of equal types all the way down, floats to the bit (so -0.0 is not 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex() and str(a) == str(b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


NUMBER = r"-?(0|[1-9][0-9]{0,260})(\.[0-9]{1,40})?([eE][-+]?[0-9]{1,4})?"
tokens = st.from_regex(NUMBER, fullmatch=True) | st.sampled_from(["NaN", "Infinity", "-Infinity"])
values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.integers(-(10**300), 10**300) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(tokens, min_size=1, max_size=6))
def test_number_tokens_parse_alike(numbers):
    text = "[" + ", ".join(numbers) + "]"
    fast, checked = outcome(parse_json, text), outcome(checked_parse, text)
    assert same(fast, checked), (text, fast, checked)


@settings(max_examples=200, deadline=None)
@given(values)
def test_json_values_parse_alike(value):
    text = json.dumps(value)  # NaN and infinities are written as tokens, which both parses refuse
    assert same(outcome(parse_json, text), outcome(checked_parse, text))


EDGE_TOKENS = ["-0.0", "1e-400", "-1e-400", "1E+99", "1e99", str(2**63 - 1), str(2**63), str(-(2**63)), str(2**64),
               "9" * 199, "-" + "9" * 199, "1" + "0" * 249, "0." + "0" * 250 + "1", "1.5e-05", "-0"]


@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_edge_tokens_parse_alike(token):
    text = f'{{"v": [{token}, "{token}"]}}'
    fast = parse_json(text)
    assert same(fast, checked_parse(text))
    assert same(fast["v"][0], json.loads(token))
    if token.endswith("e-400"):
        assert fast["v"][0] == 0.0


FLAGGED_FINITE = ["1e-300", "1E+099", "1e0005", "1" + "0" * 250, "0." + "0" * 250 + "1"]
FLAGGED_STRINGS = ['"e123"', '{"E-100": 1}', '"' + "7" * 300 + '"']


@pytest.mark.parametrize("text", [f"[{token}]" for token in FLAGGED_FINITE + FLAGGED_STRINGS])
def test_finite_numbers_and_strings_the_screen_flags_are_accepted(text):
    assert not _within_float_range(text)
    assert same(parse_json(text), json.loads(text))


@pytest.mark.parametrize("text", ["[1e99, 12345678901234567890, 0.5e-99, -7]", '{"kind": "table"}'])
def test_the_screen_passes_numbers_that_cannot_overflow(text):
    assert _within_float_range(text)


@pytest.mark.parametrize("token", ["1e999", "-1E+400", "1" + "0" * 400, "1" * 5000, "1e0309"])
def test_overflowing_tokens_are_flagged_and_rejected(token):
    assert not _within_float_range(f"[0, {token}]")
    with pytest.raises(ScenarioError, match=r"^x\[1\]: number .* is not a finite float$"):
        parse_json(f"[0, {token}]", "x")
