"""The array sums of a random vector match a per-outcome Python loop bit for bit.

The probability sum and the induced measure's weights are computed over the
outcome columns with numpy; ``slow_vector_sums`` forms the same numbers
outcome by outcome, as the loops these replaced did.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapcov import DiscreteRandomVector
from lapcov.measures import Columns
from lapcov.randomvectors import _running_sum, _weights, as_measure

from helpers import slow_vector_sums


def bits(value) -> tuple:
    """A float or complex as the bits of its parts, so -0.0 and 0.0 differ."""
    value = complex(value)
    return value.real.hex(), math.copysign(1.0, value.real), value.imag.hex(), math.copysign(1.0, value.imag)


def assert_sums_match(rv):
    total, weights = slow_vector_sums(rv.outcomes)
    assert bits(_running_sum(rv.outcomes.columns[0])) == bits(total)
    assert [bits(w) for w in _weights(rv)] == [bits(w) for w in weights]


def columns_and_tuples(ps, xs, ys):
    """The same outcomes given as Columns of arrays and as (p, x, y) triples."""
    as_columns = DiscreteRandomVector(Columns(np.array(ps, dtype=float), np.array(xs, dtype=complex),
                                              np.array(ys, dtype=complex)))
    as_tuples = DiscreteRandomVector(tuple(zip(ps, map(tuple, xs), ys)))
    return as_columns, as_tuples


finite = st.floats(-1e200, 1e200) | st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 1e-300, -5e-324])


@st.composite
def outcomes(draw):
    n = draw(st.integers(1, 12))
    raw = draw(st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=n, max_size=n))
    if sum(raw) == 0:
        raw[0] = 1.0
    ps = [r / math.fsum(raw) for r in raw]
    dim = draw(st.integers(1, 2))
    xs = [[complex(draw(finite), draw(finite)) for _ in range(dim)] for _ in range(n)]
    ys = [complex(draw(finite), draw(finite)) for _ in range(n)]
    return ps, xs, ys


@settings(max_examples=100, deadline=None)
@given(outcomes())
def test_sums_match_a_per_outcome_loop(drawn):
    ps, xs, ys = drawn
    if abs(math.fsum(ps) - 1.0) > 1e-13:  # a rounding of the normalization that the vector would refuse
        return
    for rv in columns_and_tuples(ps, xs, ys):
        assert_sums_match(rv)


@pytest.mark.parametrize(
    "ps,xs,ys",
    [
        ([1.0], [[0.5]], [2.5 - 1j]),  # one outcome
        ([0.5, 0.0, 0.5], [[0.1], [0.2], [0.3]], [1.0, 7.0 + 7j, -1j]),  # a zero-probability outcome
        ([0.25, 0.75], [[-0.0], [0.3 - 0.0j]], [complex(-0.0, -0.0), complex(0.0, -0.0)]),  # -0.0 parts
        ([-0.0, 1.0], [[1.0], [2.0]], [complex(-1.0, -0.0), complex(-0.0, 1.0)]),
        ([0.1] * 10, [[0.1 * k] for k in range(10)], [complex(1 + k, -k) / 3 for k in range(10)]),  # rounding order
    ],
)
def test_sums_match_on_edge_outcomes(ps, xs, ys):
    for rv in columns_and_tuples(ps, xs, ys):
        assert_sums_match(rv)


def test_columns_of_unequal_length_are_refused():
    # three probabilities, two outcomes: no outcome is silently dropped
    with pytest.raises(ValueError, match="^columns must have one length$"):
        DiscreteRandomVector(Columns([0.5, 0.5, 0.3], [[1], [2]], [1, 1]))


def test_columns_stay_arrays_and_read_only():
    rv, from_tuples = columns_and_tuples([0.5, 0.5], [[1.0], [-1.0]], [1.0, 2.0])
    assert list(rv.outcomes) == list(from_tuples.outcomes) == [(0.5, (1 + 0j,), 1 + 0j), (0.5, (-1 + 0j,), 2 + 0j)]
    for column in rv.outcomes.columns:
        assert isinstance(column, np.ndarray) and not column.flags.writeable
    assert rv.x_array is rv.outcomes.columns[1] and rv.dim == 1
    # distinct x-values: the induced measure keeps each outcome's p * y as an atom
    assert sorted(bits(w) for _, w in as_measure(rv).atoms) == sorted(map(bits, slow_vector_sums(rv.outcomes)[1]))
