import pytest

from lapcov import (
    DiscreteRandomVector,
    ExpectationYZero,
    decide_constant_vector,
    moment_condition_residual,
)
from lapcov.randomvectors import CONSTANT, NOT_CONSTANT, as_measure

from helpers import random_point, separated_points


def two_point_vector():
    return DiscreteRandomVector(((0.5, (1.0,), 1.0), (0.5, (-1.0,), 1.0)))


def support_size(rv):
    """Independent oracle: distinct X values with nonzero aggregated p*y."""
    buckets = {}
    for p, x, y in rv.outcomes:
        buckets[x] = buckets.get(x, 0j) + p * y
    return sum(1 for v in buckets.values() if abs(v) > 1e-14)


def test_residual_constant_vector_vanishes():
    rv = DiscreteRandomVector(
        ((0.25, (0.3 + 0.2j,), 2.0), (0.75, (0.3 + 0.2j,), 1.0 - 0.5j))
    )
    for m in range(3):
        for n in range(3):
            assert abs(moment_condition_residual(rv, (m,), (n,))) < 1e-14


def test_residual_two_point_example():
    assert moment_condition_residual(two_point_vector(), (1,), (1,)) == 1


def test_residual_order_zero_is_identically_zero(rng):
    for _ in range(10):
        outcomes = []
        probabilities = rng.dirichlet([1.0] * 3)
        for p in probabilities:
            outcomes.append((float(p), random_point(rng, 2), complex(rng.normal(), rng.normal())))
        rv = DiscreteRandomVector(tuple(outcomes))
        assert moment_condition_residual(rv, (0, 0), (0, 0)) == 0


def test_decide_single_outcome():
    rv = DiscreteRandomVector(((1.0, (0.7 - 0.1j,), 2.5),))
    verdict = decide_constant_vector(rv)
    assert verdict.kind == CONSTANT
    assert abs(verdict.point[0] - (0.7 - 0.1j)) < 1e-14


def test_decide_two_point_not_constant():
    verdict = decide_constant_vector(two_point_vector())
    assert verdict.kind == NOT_CONSTANT
    assert verdict.witness == ((1,), (1,))
    assert verdict.residual == 1
    # the reported residual is exactly the moment-condition value
    assert verdict.residual == moment_condition_residual(two_point_vector(), (1,), (1,))


def test_decide_merges_equal_x_values():
    rv = DiscreteRandomVector(((0.5, (0.4,), 2.0), (0.5, (0.4,), -0.5)))
    verdict = decide_constant_vector(rv)
    assert verdict.kind == CONSTANT
    assert abs(verdict.point[0] - 0.4) < 1e-14
    assert len(as_measure(rv).atoms) == 1


def test_decide_requires_nonzero_expectation():
    rv = DiscreteRandomVector(((0.5, (1.0,), 1.0), (0.5, (2.0,), -1.0)))
    with pytest.raises(ExpectationYZero):
        decide_constant_vector(rv)


def test_decide_agrees_with_support_inspection(rng):
    for _ in range(20):
        count = int(rng.integers(1, 4))
        points = separated_points(rng, 2, count)
        weights = rng.dirichlet([1.0] * count)
        outcomes = tuple(
            (float(p), x, 1.0 + 0.2 * rng.normal()) for p, x in zip(weights, points)
        )
        rv = DiscreteRandomVector(outcomes)
        verdict = decide_constant_vector(rv)
        expected = CONSTANT if support_size(rv) == 1 else NOT_CONSTANT
        assert verdict.kind == expected


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        DiscreteRandomVector(((0.5, (1.0,), 1.0),))
