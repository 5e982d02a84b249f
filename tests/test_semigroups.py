import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapcov.laplace as laplace
import lapcov.semigroups as semigroups
from lapcov import (
    AtomicMeasure,
    EvaluationGrid,
    GridTooLarge,
    NumericOverflow,
    PrimeOutOfRange,
    Semigroup,
    char_eval,
    character_matrix,
    combine,
    decide_covariance,
    default_grid,
    identity,
    kappa,
    pair_function_from_measure,
    recover_point_mass,
)
from lapcov.semigroups import (
    _MAX_SQUARING_EXPONENT,
    _MIN_ARRAY_ENTRIES,
    _character_array,
    element_exponents,
    monomial,
    validate_element,
    validate_point,
)

from helpers import random_character_point, slow_char

ALL_KINDS = [Semigroup.nat_add(2), Semigroup.nat_mult(3), Semigroup.half_line()]


def test_identity_examples():
    assert identity(Semigroup.nat_add(2)) == (0, 0)
    assert identity(Semigroup.nat_mult(3)) == 1
    assert identity(Semigroup.half_line()) == 0.0


def test_combine_examples():
    assert combine(Semigroup.nat_add(2), (1, 0), (0, 2)) == (1, 2)
    assert combine(Semigroup.nat_mult(3), 6, 10) == 60
    assert combine(Semigroup.half_line(), 0.5, 0.25) == 0.75


def test_combine_natmult_overflow():
    sg = Semigroup.nat_mult(1)
    with pytest.raises(GridTooLarge):
        combine(sg, 2**40, 2**40)


def test_kappa_examples():
    assert kappa(12, 2) == (2, 1)
    assert kappa(1, 3) == (0, 0, 0)
    assert kappa(10, 3) == (1, 0, 1)


def test_kappa_prime_out_of_range():
    with pytest.raises(PrimeOutOfRange):
        kappa(10, 2)  # 5 is not among the first two primes
    with pytest.raises(PrimeOutOfRange):
        kappa(7, 3)


def test_char_eval_examples():
    import math

    assert char_eval(Semigroup.nat_add(1), (0.5,), (3,)) == 0.125
    # 0**0 == 1 convention
    assert char_eval(Semigroup.nat_add(2), (0.0, 0.3j), (0, 0)) == 1
    assert abs(char_eval(Semigroup.half_line(), (1 + 0j,), math.log(2)) - 0.5) < 1e-15


def test_char_eval_at_identity_is_exactly_one(rng):
    for sg in ALL_KINDS:
        for _ in range(5):
            point = validate_point(sg, random_character_point(rng, sg))
            assert char_eval(sg, point, identity(sg)) == 1


@settings(max_examples=200)
@given(
    z=st.tuples(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    ),
    s=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    t=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_multiplicativity_nat_add(z, s, t):
    sg = Semigroup.nat_add(2)
    st_ = combine(sg, s, t)
    lhs = char_eval(sg, z, st_)
    rhs = char_eval(sg, z, s) * char_eval(sg, z, t)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@pytest.mark.parametrize("sg", ALL_KINDS)
def test_multiplicativity_on_grid_pairs(sg, rng):
    from lapcov import default_grid

    grid = default_grid(sg, order=2)
    for _ in range(5):
        point = validate_point(sg, random_character_point(rng, sg))
        for s, t in itertools.product(grid.elements, repeat=2):
            lhs = char_eval(sg, point, combine(sg, s, t))
            rhs = char_eval(sg, point, s) * char_eval(sg, point, t)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_kappa_is_a_morphism(rng):
    primes = (2, 3, 5)
    for _ in range(20):
        n = 1
        m = 1
        for p in primes:
            n *= p ** int(rng.integers(0, 4))
            m *= p ** int(rng.integers(0, 4))
        kn, km, knm = kappa(n, 3), kappa(m, 3), kappa(n * m, 3)
        assert knm == tuple(a + b for a, b in zip(kn, km))


@pytest.mark.parametrize("sg", ALL_KINDS)
def test_character_matrix_matches_scalar_eval(sg, rng):
    from lapcov import default_grid

    grid = default_grid(sg, order=2)
    points = [validate_point(sg, random_character_point(rng, sg)) for _ in range(3)]
    matrix = character_matrix(sg, points, grid.exponents)
    for k, z in enumerate(points):
        for j, s in enumerate(grid.elements):
            assert matrix[k, j] == char_eval(sg, z, s)
            oracle = slow_char(sg, z, s)
            assert abs(matrix[k, j] - oracle) <= 1e-12 * max(1.0, abs(oracle))


def character_loop(sg, points, elements):
    # the scalar loop character_matrix ran before it had an array kernel and
    # exponent rows: char_eval per entry, with kappa for nat_mult
    out = np.empty((len(points), len(elements)), dtype=complex)
    for k, z in enumerate(points):
        for j, s in enumerate(elements):
            out[k, j] = char_eval(sg, z, s)
    return out


def assert_bit_equal(sg, points, exponents, elements):
    got, want = character_matrix(sg, points, exponents), character_loop(sg, points, elements)
    assert got.shape == want.shape
    # bytes, not ==, so that the sign of a zero counts
    assert got.tobytes() == want.tobytes()


def random_points(rng, sg, count):
    """``count`` random points, plus the origin and signed-zero and unit points (0**0 = 1)."""
    points = [validate_point(sg, random_character_point(rng, sg)) for _ in range(count)]
    d = sg.point_dim
    extra = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-1.0, -0.0), 1j]  # 1j ** 3 == -0.0 - 1j
    if sg.family != "half_line":
        extra.append(complex(-0.0, 2.0))
    return points + [(z,) * d for z in extra]


@pytest.mark.parametrize(
    "sg,order",
    [
        (Semigroup.nat_add(2), 8),
        (Semigroup.nat_add(3), 3),
        (Semigroup.nat_mult(3), 3),
        (Semigroup.half_line(), 32),
    ],
)
@pytest.mark.parametrize("count", [0, 3, 64])  # with the 4-5 fixed points: both sides of the size rule
def test_character_matrix_is_bit_equal_to_the_scalar_loop(rng, sg, order, count):
    grid = default_grid(sg, order=order)
    points = random_points(rng, sg, count)
    # the grid's own exponent arrays; for nat_mult the closure rows are sums, never factored
    for exponents, elements in (
        (grid.exponents, grid.elements),
        (grid.closure_exponents, grid.pairs_closure),
        (grid.exponents[:1], grid.elements[:1]),
        (grid.exponents[:20], grid.elements[:20]),
    ):
        assert_bit_equal(sg, points, exponents, elements)
        assert_bit_equal(sg, points[:1], exponents, elements)


def test_character_matrix_on_exponents_past_the_squaring_range_takes_the_loop(rng):
    sg = Semigroup.nat_add(2)
    grid = EvaluationGrid(sg, ((_MAX_SQUARING_EXPONENT + 1, 3), (0, 120), (1, 1)))
    points = random_points(rng, sg, 40)
    assert _character_array(sg, points, grid.closure_exponents) is None
    assert_bit_equal(sg, points, grid.exponents, grid.elements)
    assert_bit_equal(sg, points, grid.closure_exponents, grid.pairs_closure)


def test_half_line_exponents_outside_the_exp_range_take_the_loop():
    # -s Re z = 709 is past the range where numpy's exp matches cmath.exp, yet exp(709) is finite
    sg = Semigroup.half_line()
    grid = EvaluationGrid(sg, (7.09e14,))
    points = [(complex(-1e-12, 1.0 + 0.01 * k),) for k in range(_MIN_ARRAY_ENTRIES[sg.family])]
    assert _character_array(sg, points, grid.exponents) is None
    assert_bit_equal(sg, points, grid.exponents, grid.elements)


def test_a_built_nat_mult_grid_is_never_factored_again(monkeypatch, rng):
    sg = Semigroup.nat_mult(3)
    calls = []

    def counting(name, original):
        return lambda *args: calls.append(name) or original(*args)

    for module, name in ((semigroups, "kappa"), (semigroups, "validate_element"),
                         (semigroups, "element_exponents"), (laplace, "element_exponents")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    char_eval(sg, (0.5, 0.5, 0.5), 12)
    EvaluationGrid(sg, (12,))
    assert set(calls) == {"kappa", "validate_element", "element_exponents"}, "the wrappers see an element list's checks"
    calls.clear()
    grid = default_grid(sg, order=3)
    assert calls == [], "a default grid is built in exponent space"
    for count in (1, 2, 40):  # one atom recovers a point mass; 40 atoms take the array kernel
        mu = AtomicMeasure(sg, tuple((random_character_point(rng, sg), 1.0) for _ in range(count)))
        decide_covariance(mu, None, grid)
        recover_point_mass(mu, None, grid)
        pair_function_from_measure(mu, grid)
    assert calls == []


def test_character_matrix_is_bit_equal_across_the_exponent_100_boundary(rng):
    # Python's complex ** int squares up to exponent 100 and goes through exp/log past it
    sg = Semigroup.nat_add(2)
    points = [(complex(*rng.normal(size=2)) / 1.3, complex(*rng.normal(size=2)) / 1.3) for _ in range(20)]
    points += [(z / abs(z), 1j) for z in (complex(*rng.normal(size=2)) for _ in range(5))] + [(0j, 0j)]
    for top in (99, 100, 101):
        block = [(e, f) for e in range(top - 8, top + 1) for f in range(3)]
        for elements in (block, [(f, e) for e, f in block]):
            assert_bit_equal(sg, points, element_exponents(sg, elements), elements)


@pytest.mark.parametrize(
    "sg,point,elements",
    [
        (Semigroup.nat_add(1), 1e200 + 0j, [(e,) for e in range(16)]),  # complex ** int overflows
        (Semigroup.half_line(), complex(-1e-12, 1.0), [1e15 * (i + 1) for i in range(16)]),  # cmath.exp overflows
    ],
)
def test_character_matrix_raises_where_python_overflows(sg, point, elements):
    exponents = element_exponents(sg, elements)
    for build, columns in ((character_matrix, exponents), (character_loop, elements)):
        with pytest.raises(OverflowError):
            build(sg, [(point,)] * 16, columns)
    with pytest.raises(NumericOverflow):
        character_matrix(sg, [(point,)] * 16, exponents)


def test_validate_element_rejects_bad_inputs():
    with pytest.raises(ValueError):
        validate_element(Semigroup.nat_add(2), (1,))
    with pytest.raises(ValueError):
        validate_element(Semigroup.nat_add(1), (-1,))
    with pytest.raises(ValueError):
        validate_element(Semigroup.half_line(), -0.5)
    with pytest.raises(PrimeOutOfRange):
        validate_element(Semigroup.nat_mult(2), 35)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            validate_element(Semigroup.half_line(), value)


@pytest.mark.parametrize(
    "sg,elements",
    [
        (Semigroup.nat_add(1), [(0,), (1.5,)]),
        (Semigroup.nat_add(1), [(True,), (2,)]),
        (Semigroup.nat_add(2), [(1, 0), (0, "1")]),
        (Semigroup.nat_mult(2), [2.5, 3]),
        (Semigroup.nat_mult(2), [True, 3]),
    ],
)
def test_fractional_and_boolean_entries_are_rejected_not_truncated(sg, elements):
    # int() would read 1.5 as 1 and True as 1
    with pytest.raises(ValueError, match="expected an integer"):
        EvaluationGrid(sg, elements)


def test_integral_entries_of_other_types_are_accepted():
    assert validate_element(Semigroup.nat_add(2), [np.int64(2), 3.0]) == (2, 3)
    assert validate_element(Semigroup.nat_mult(2), np.int64(6)) == 6


def test_monomial_overflow_is_a_numeric_overflow():
    with pytest.raises(NumericOverflow, match="overflows the float range"):
        monomial((1e200 + 0j,), (2,))


@pytest.mark.parametrize("count", [1, 64])  # the scalar loop and the array kernel
def test_character_matrix_raises_where_the_product_of_finite_powers_overflows(count):
    # each power is finite and Python's complex product returns inf without raising
    with pytest.raises(NumericOverflow):
        character_matrix(Semigroup.nat_add(2), [(1e160 + 0j, 1e160 + 0j)] * count, np.array([(0, 0), (1, 1), (0, 1)]))


def symbol_term_loop(point, exponents, coeff):
    # the per-term loop Symbol.at ran before it called monomial
    term = coeff
    for z, e in zip(point, exponents):
        term *= complex(z) ** int(e)
    return term


@pytest.mark.parametrize("dim", [2, 3])
def test_monomial_is_bit_equal_to_the_symbol_term_loop(rng, dim):
    for _ in range(2000):
        point = tuple(complex(*rng.normal(size=2)) for _ in range(dim))
        exponents = tuple(int(e) for e in rng.integers(0, 6, size=dim))
        coeff = complex(*rng.normal(size=2))
        assert monomial(point, exponents, coeff) == symbol_term_loop(point, exponents, coeff)
    assert monomial((0j,) * dim, (0,) * dim) == 1


def test_validate_point_checks_half_plane():
    with pytest.raises(ValueError):
        validate_point(Semigroup.half_line(), (-1.0 + 0j,))
    assert validate_point(Semigroup.half_line(), (0.0 + 3j,)) == (3j,)
