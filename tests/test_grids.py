"""Closure-indexed grids and the array kernels built on them.

Each array path is checked against a brute-force reference built from the
scalar semigroup operation ``combine``.
"""

import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from lapcov import (
    AtomicMeasure,
    EvaluationGrid,
    MissingGridValue,
    PairFunction,
    Semigroup,
    Symbol,
    char_eval,
    character_matrix,
    combine,
    default_grid,
    identity,
    kappa,
    laplace_transform,
    multiplicativity_defect,
    pair_function_from_measure,
    recover_point_mass,
    resolve_point,
    symbol_values,
    transform_block,
)
from lapcov import laplace, semigroups
from lapcov.errors import GridTooLarge
from lapcov.laplace import read_point_mass
from lapcov.semigroups import element_exponents, validate_element
from lapcov.measures import MODE_ABS_F_SQ, MODE_CONJ_F, MODE_F

from helpers import random_character_point, random_polynomial_symbol, slow_laplace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

NAT_ADD2 = Semigroup.nat_add(2)
NAT_MULT2 = Semigroup.nat_mult(2)
HALF_LINE = Semigroup.half_line()

GRIDS = [
    default_grid(NAT_ADD2),
    default_grid(Semigroup.nat_add(3), order=2),
    default_grid(NAT_MULT2, order=3),
    default_grid(Semigroup.nat_mult(3)),
    default_grid(HALF_LINE),
    # user element lists: unsorted, with duplicates, without the identity
    EvaluationGrid(NAT_ADD2, ((3, 1), (0, 2), (3, 1), (5, 0))),
    EvaluationGrid(NAT_MULT2, (6, 2, 9, 6, 12)),
    EvaluationGrid(HALF_LINE, (0.3, 0.1, 0.7, 0.3, 1.25)),
]
GRID_IDS = ["natadd2", "natadd3", "natmult2", "natmult3", "halfline", "natadd2-list", "natmult2-list", "halfline-list"]


def reference_closure(grid):
    """Sorted pairwise products by brute force over grid x grid."""
    return tuple(sorted({combine(grid.semigroup, s, t) for s, t in itertools.product(grid.elements, repeat=2)}))


def reference_defect(values, grid):
    """The multiplicativity defect of closure-indexed ``values`` as a scalar loop over grid pairs of a dict."""
    table = {el: complex(v) for el, v in zip(grid.pairs_closure, values)}
    defect = 0.0
    for s, t in itertools.product(grid.elements, repeat=2):
        st = combine(grid.semigroup, s, t)
        defect = max(defect, abs(table[st] - table[s] * table[t]))
    return defect


def random_measure(rng, semigroup, count):
    return AtomicMeasure(
        semigroup,
        tuple(
            (random_character_point(rng, semigroup), complex(rng.normal(), rng.normal()))
            for _ in range(count)
        ),
    )


# ---------------------------------------------------------------- closure


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_closure_matches_brute_force(grid):
    assert grid.pairs_closure == reference_closure(grid)
    assert [type(el) for el in grid.pairs_closure] == [type(el) for el in reference_closure(grid)]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_products_index_every_pair(grid):
    n = len(grid.elements)
    assert grid.products.shape == (n, n)
    for (i, s), (j, t) in itertools.product(enumerate(grid.elements), repeat=2):
        assert grid.pairs_closure[grid.products[i, j]] == combine(grid.semigroup, s, t)
    assert grid.elements[0] == identity(grid.semigroup)
    assert tuple(grid.pairs_closure[k] for k in grid.products[0]) == grid.elements


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_exponent_arrays_are_the_elements_in_exponent_space(grid):
    sg = grid.semigroup
    for exponents, elements in ((grid.exponents, grid.elements), (grid.closure_exponents, grid.pairs_closure)):
        assert not exponents.flags.writeable
        if sg.family == "nat_mult":
            expected = [list(kappa(s, sg.dim)) for s in elements]
        else:
            expected = [list(s) for s in elements] if sg.family == "nat_add" else list(elements)
        assert exponents.tolist() == expected
        assert exponents.dtype == (float if sg.family == "half_line" else np.int64)


@pytest.mark.parametrize(
    "semigroup,elements",
    [
        (NAT_ADD2, [(1, 2), (1,), (-1, 0)]),
        (NAT_ADD2, [(1, 2), (-1, 0), (1,)]),
        (NAT_ADD2, [(1, 2), (0.5, 1), (-1, 0)]),
        (NAT_ADD2, [(1, 2), 3]),
        (NAT_MULT2, [6, 35, 0]),
        (NAT_MULT2, [6, 0, 35]),
        (NAT_MULT2, [6, 2.5]),
        (HALF_LINE, [0.5, -1.0, math.nan]),
        (HALF_LINE, [0.5, math.inf, -1.0]),
        (HALF_LINE, [0.5, "x"]),
    ],
)
def test_element_exponents_raise_the_first_bad_elements_error(semigroup, elements):
    with pytest.raises(Exception) as got:
        element_exponents(semigroup, elements)
    with pytest.raises(Exception) as want:
        [validate_element(semigroup, el) for el in elements]
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_element_exponents_take_integral_values_of_other_types():
    assert element_exponents(NAT_ADD2, [[np.int64(2), 3.0], (True + 1, 0)]).tolist() == [[2, 3], [2, 0]]
    assert element_exponents(NAT_MULT2, [np.int64(6), 12.0]).tolist() == [[1, 1], [2, 1]]
    assert element_exponents(HALF_LINE, [np.float32(0.5), -0.0, 2]).tolist() == [0.5, 0.0, 2.0]
    assert math.copysign(1.0, element_exponents(HALF_LINE, [-0.0])[0]) == 1.0
    with pytest.raises(GridTooLarge, match="nat_add grid coordinates exceed the supported range"):
        element_exponents(NAT_ADD2, [(2**64, 0)])
    # 2**64 has the exponent row (64, 0); its product range is the grid's to check
    assert element_exponents(NAT_MULT2, [2**64, 3]).tolist() == [[64, 0], [0, 1]]
    with pytest.raises(GridTooLarge, match=f"product {2**64}\\*{2**64} exceeds the supported range"):
        EvaluationGrid(NAT_MULT2, (2**64, 3))


# the semigroups of the benchmark's scenarios (perfbench/scenarios.py FAMILIES)
BENCHMARK_SEMIGROUPS = [("nat_add", NAT_ADD2), ("nat_mult", Semigroup.nat_mult(3)), ("half_line", HALF_LINE)]


def _benchmark_orders(monkeypatch, family):
    """Every grid order of ``family`` in the benchmark's workloads."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import scenarios

    fine = scenarios.FINE_ORDERS[family]
    return {scenarios.DENSE_ORDERS[family], *fine, scenarios.TRANSFORM_ORDERS[family]}


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family,semigroup", BENCHMARK_SEMIGROUPS)
def test_a_default_grid_is_the_grid_of_its_own_elements(monkeypatch, family, semigroup):
    for order in sorted({0, 1, 2} | _benchmark_orders(monkeypatch, family)):
        built = default_grid(semigroup, order)
        listed = EvaluationGrid(semigroup, built.elements, order=order)
        assert built == listed
        assert built.elements == listed.elements and built.pairs_closure == listed.pairs_closure
        for name in ("exponents", "closure_exponents", "products"):
            assert _same_array(getattr(built, name), getattr(listed, name)), (order, name)


def _box_rows(semigroup, top):
    """The box {0..top}^d of a default grid, listed by ``itertools.product``."""
    if semigroup.family == "half_line":
        return 0.25 * np.arange(top + 1)
    rows = itertools.product(range(top + 1), repeat=semigroup.dim)
    return np.array(list(rows), dtype=np.int64).reshape(-1, semigroup.dim)


@pytest.mark.parametrize(
    "family,dim", [(family, dim) for family in ("nat_add", "nat_mult") for dim in (1, 2, 3, 4)] + [("half_line", 1)]
)
def test_the_closed_form_closure_of_a_box_is_closure_tables(family, dim):
    semigroup = Semigroup(family, dim)
    compared = 0
    for order in range(13):
        if ((order + 1) ** dim) ** 2 > semigroups._MAX_PAIR_ENTRIES:
            continue  # default_grid refuses it first
        try:
            want = semigroups.closure_table(semigroup, _box_rows(semigroup, order))
        except GridTooLarge as exc:
            with pytest.raises(GridTooLarge, match=f"^{re.escape(str(exc))}$"):
                semigroups.box_closure(semigroup, order)
            continue
        got = semigroups.box_closure(semigroup, order)
        for name, a, b in zip(("rows", "closure", "products"), got, want):
            assert _same_array(a, b), (order, name)
        compared += 1
    # nat_mult with 4 primes leaves the int64 range past order 4
    assert compared >= 5


def test_an_oversized_default_grid_raises_what_it_raised_before():
    with pytest.raises(GridTooLarge, match="^a grid of 2197 elements has 4826809 pairs, more than the supported 4194304$"):
        default_grid(Semigroup.nat_add(3), 12)
    with pytest.raises(GridTooLarge, match="^product 21870000000\\*21870000000 exceeds the supported range$"):
        default_grid(Semigroup.nat_mult(3), 7)


def test_default_grids_below_order_one_hold_the_identity_alone():
    for semigroup in (NAT_ADD2, NAT_MULT2, HALF_LINE):
        for order in (0, -3):
            grid = default_grid(semigroup, order)
            assert grid.elements == (identity(semigroup),) and grid.order == order


@pytest.mark.parametrize("name", ["pairs_closure", "products", "exponents", "closure_exponents"])
def test_a_grid_takes_no_derived_field(name):
    with pytest.raises(TypeError):
        EvaluationGrid(NAT_ADD2, ((1, 0),), 2, **{name: None})


def test_pair_tables_past_the_bound_raise_before_they_are_built(monkeypatch, rng):
    monkeypatch.setattr(semigroups, "_MAX_PAIR_ENTRIES", 1000)
    with pytest.raises(GridTooLarge, match="^a grid of 121 elements has 14641 pairs, more than the supported 1000$"):
        default_grid(NAT_ADD2, 10)
    # counted after the duplicates are dropped: 31 distinct reals and the identity
    with pytest.raises(GridTooLarge, match="^a grid of 32 elements has 1024 pairs"):
        EvaluationGrid(HALF_LINE, 2 * tuple(0.5 * k for k in range(1, 32)))
    assert len(EvaluationGrid(HALF_LINE, 2 * tuple(0.5 * k for k in range(1, 31))).elements) == 31
    grid = default_grid(Semigroup.nat_mult(3))  # 27 elements, 125 in the closure
    with pytest.raises(GridTooLarge, match="^a grid closure of 125 elements has 15625 pairs"):
        pair_function_from_measure(random_measure(rng, grid.semigroup, 2), grid)
    monkeypatch.setattr(semigroups, "_MAX_PAIR_ENTRIES", 121**2)
    assert len(default_grid(NAT_ADD2, 10).elements) == 121


@pytest.mark.parametrize("family,semigroup", BENCHMARK_SEMIGROUPS)
def test_every_benchmark_pair_table_is_below_the_bound(monkeypatch, family, semigroup):
    grid = default_grid(semigroup, max(_benchmark_orders(monkeypatch, family)))
    assert len(grid.pairs_closure) ** 2 <= semigroups._MAX_PAIR_ENTRIES


def test_user_grid_adds_identity_and_drops_duplicates():
    grid = EvaluationGrid(NAT_MULT2, (6, 2, 9, 6, 12))
    assert grid.elements == (1, 2, 6, 9, 12)
    assert grid.pairs_closure == (1, 2, 4, 6, 9, 12, 18, 24, 36, 54, 72, 81, 108, 144)


def test_products_table_is_read_only():
    grid = default_grid(NAT_ADD2, order=1)
    with pytest.raises(ValueError):
        grid.products[0, 0] = 0


def test_grid_equality_ignores_derived_fields():
    assert default_grid(NAT_ADD2, order=2) == EvaluationGrid(NAT_ADD2, default_grid(NAT_ADD2, order=2).elements, order=2)
    assert len({default_grid(NAT_ADD2, order=2), default_grid(NAT_ADD2, order=2)}) == 1


def test_nat_mult_products_up_to_two_to_the_62():
    grid = EvaluationGrid(Semigroup.nat_mult(1), (2**31,))
    assert grid.pairs_closure == (1, 2**31, 2**62)
    # 2**12 * 3**12 is 1.4% above 2**31, so its square passes 2**62
    with pytest.raises(GridTooLarge):
        EvaluationGrid(NAT_MULT2, (2**12 * 3**12,))
    with pytest.raises(GridTooLarge):
        EvaluationGrid(Semigroup.nat_mult(1), (2**31, 2**32))


def test_nat_add_codes_up_to_two_to_the_62():
    top = 2**61 - 1
    grid = EvaluationGrid(Semigroup.nat_add(1), ((top,),))
    assert grid.pairs_closure == ((0,), (top,), (2 * top,))
    # (2**62,) + (2**62,) is past the int64 range
    for element in ((2**61,), (2**62,), (2**70,)):
        with pytest.raises(GridTooLarge):
            EvaluationGrid(Semigroup.nat_add(1), (element,))
    with pytest.raises(GridTooLarge):
        EvaluationGrid(NAT_ADD2, ((2**31, 2**31),))


def test_half_line_closure_sums_stay_finite():
    grid = EvaluationGrid(HALF_LINE, (8.9e307,))
    assert grid.pairs_closure == (0.0, 8.9e307, 1.78e308)
    # twice 9e307 is past the float range
    for elements in ((9e307,), (1e308, 0.5)):
        with pytest.raises(GridTooLarge, match="half_line grid elements exceed the supported range"):
            EvaluationGrid(HALF_LINE, elements)


# ------------------------------------------------ multiplicativity defect


def defect_tables(rng, grid):
    """Closure-indexed gamma tables that reach every way ``multiplicativity_defect`` reads its maximum."""
    size = len(grid.pairs_closure)

    def normal(scale):
        return scale * (rng.normal(size=size) + 1j * rng.normal(size=size))

    # gaps near the scale below 1 and near its square above: 1e77 and 1e150 make squares that overflow,
    # 1e-170 and 1e-310 (subnormal parts) squares that underflow, 2**-479 and 2**-481 straddle 2**-960
    tables = [normal(scale) for scale in (1e-3, 1.0, 1e3, 1e77, 1e150, 1e-170, 1e-310, 2.0**-479, 2.0**-481)]
    # one gap of size 1 among underflowing squares, and gaps near 1e154 among ordinary ones
    for tiny, big in ((1e-170, 1.0), (1.0, 1e154)):
        values = normal(tiny)
        values[rng.integers(size)] = big * (1 + 1j)
        tables.append(values)
    for special in (complex("nan+1j"), complex("inf"), complex("-inf"), complex("inf-infj"), complex("1+infj")):
        values = normal(1.0)
        values[rng.integers(size)] = special
        tables.append(values)
    tables.append(normal(1e200))  # products overflow to inf, and inf - inf is NaN
    tables.append(np.zeros(size, dtype=complex))
    # small Gaussian integers: every product is exact, so equal gaps tie exactly, (3, 4) with (5, 0) too
    tables.append(rng.integers(-3, 4, size) + 1j * rng.integers(-3, 4, size))
    ties = np.ones(size, dtype=complex)
    ties[-3:] = [4 + 4j, 6, 1 - 5j]
    tables.append(ties)
    # two gaps whose squares order otherwise than their hypots: near 0.5, within the 2**-40 window of the
    # largest square, and near 7e-161, where the squares are subnormal and 2**-40 apart
    for a, b in (
        ((0.31834344874267695, 0.3855612125754074), (0.3367908996327307, 0.36955634201644516)),
        ((5.013787548401903e-161, 5.003134699616456e-161), (5.011957781451444e-161, 5.004969325633079e-161)),
    ):
        values = np.zeros(size, dtype=complex)
        values[grid.products[0][1:3]] = complex(*a), complex(*b)  # gamma(e) = 0: the gaps at (e, s) are a and b
        tables.append(values)
    return tables


def float_bits(x: float) -> str:
    return float(x).hex()


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_defect_bit_equal_to_scalar_loop(grid, rng, monkeypatch):
    tables = defect_tables(rng, grid)
    # a true character table: the defect is rounding only
    z = random_character_point(rng, grid.semigroup)
    mu = AtomicMeasure(grid.semigroup, ((z, 1.0),))
    tables.append(np.array([laplace_transform(mu, None, el, identity(grid.semigroup)) for el in grid.pairs_closure]))
    # blocks of one row, of uneven row counts, and of the whole grid
    for rows in (1, 7, 64, len(grid.elements)):
        monkeypatch.setattr(laplace, "_BLOCK_BYTES", rows * 8 * len(grid.elements))
        for values in tables:
            assert float_bits(multiplicativity_defect(values, grid)) == float_bits(reference_defect(values, grid))


@pytest.mark.parametrize("semigroup", [NAT_ADD2, NAT_MULT2, HALF_LINE], ids=["natadd", "natmult", "halfline"])
def test_character_table_is_a_read_only_view_in_closure_order(semigroup, rng):
    grid = default_grid(semigroup, order=2)
    z = random_character_point(rng, semigroup)
    mu = AtomicMeasure(semigroup, ((z, 1.5 - 0.5j),))
    _, table = recover_point_mass(mu, None, grid)
    closure = grid.pairs_closure
    assert len(table) == len(closure) and list(table) == list(closure)
    for i, s in enumerate(closure):
        assert s in table
        assert table[s] == table.get(s) == complex(table.array[i]) and type(table[s]) is complex
    outside = {NAT_ADD2: (9, 0), NAT_MULT2: 7, HALF_LINE: 0.1}[semigroup]
    assert outside not in table and table.get(outside) is None and table.get(outside, 1j) == 1j
    with pytest.raises(KeyError):
        table[outside]
    with pytest.raises(TypeError):
        table[closure[1]] = 0j
    with pytest.raises(ValueError):
        table.array[1] = 0j
    # the engine reads the view's array, and the element view reads the same values
    assert multiplicativity_defect(table.array, grid) == reference_defect([table[s] for s in closure], grid)
    point, resolved = resolve_point(grid, table.array)
    assert resolved and max(abs(a - b) for a, b in zip(point, z)) <= 1e-9


def test_character_table_keys_values_and_items_agree(rng):
    grid = default_grid(NAT_MULT2, order=2)
    mu = AtomicMeasure(NAT_MULT2, ((random_character_point(rng, NAT_MULT2), 1.5 - 0.5j),))
    table = read_point_mass(mu, None, grid).character
    assert list(table.keys()) == list(grid.pairs_closure)
    assert list(table.values()) == [complex(v) for v in table.array] == [table[s] for s in table.keys()]
    assert list(table.items()) == list(zip(table.keys(), table.values()))
    assert all(type(v) is complex for v in table.values())


# ------------------------------------------------------------ pair tables


def bits(values) -> list:
    """The bit patterns of complex values, so that -0.0 and 0.0 differ and NaN equals itself."""
    return np.array(list(values), dtype=complex).view(np.uint64).tolist()


def transform_pair_dict(mu, grid, symbol=None):
    """The closure x closure table from one ``transform_block``, as a dict."""
    closure = grid.pairs_closure
    table = transform_block(mu, symbol, grid.closure_exponents, grid.closure_exponents)
    return {(s, t): complex(table[i, j]) for i, s in enumerate(closure) for j, t in enumerate(closure)}


@pytest.mark.parametrize("semigroup", [NAT_ADD2, NAT_MULT2, HALF_LINE], ids=["natadd", "natmult", "halfline"])
def test_pair_view_matches_dict(semigroup, rng):
    grid = default_grid(semigroup, order=1)
    mu = random_measure(rng, semigroup, 2)
    f = pair_function_from_measure(mu, grid)
    reference = transform_pair_dict(mu, grid)
    closure = grid.pairs_closure
    assert len(f.values) == len(closure) ** 2 == len(reference)
    assert list(f.values) == list(reference)
    items = dict(f.values.items())
    assert list(items) == list(reference) and bits(items.values()) == bits(reference.values())
    for key, value in reference.items():
        assert type(f(*key)) is complex
        assert bits([f(*key), laplace_transform(mu, None, *key)]) == bits([value, value])


PAIR_SEMIGROUPS = [Semigroup.nat_add(1), NAT_ADD2, NAT_MULT2, Semigroup.nat_mult(3), HALF_LINE]


@pytest.mark.parametrize("semigroup", PAIR_SEMIGROUPS, ids=["natadd1", "natadd2", "natmult2", "natmult3", "halfline"])
@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_pair_reads_are_transform_block_bits_in_any_batch_order(semigroup, count, rng):
    grid = default_grid(semigroup, order=2)
    mu = random_measure(rng, semigroup, count)
    closure = grid.pairs_closure
    symbols = [None, Symbol.constant(complex(rng.normal(), rng.normal()))]
    if semigroup.family != HALF_LINE.family:
        symbols.append(random_polynomial_symbol(rng, semigroup.point_dim))
    for symbol in symbols:
        f = pair_function_from_measure(mu, grid, symbol)
        reference = transform_pair_dict(mu, grid, symbol)
        pairs = list(reference)
        # the whole domain, a shuffled batch with repeats, small batches and single reads
        shuffled = [pairs[i] for i in rng.integers(0, len(pairs), size=3 * len(closure))]
        assert bits(f.read(pairs)) == bits(reference.values())
        assert bits(f.read(shuffled)) == bits([reference[p] for p in shuffled])
        for start in range(0, 40, 7):
            batch = shuffled[start : start + 7]
            assert bits(f.read(batch)) == bits([reference[p] for p in batch])
        assert bits([f(*p) for p in shuffled[:10]]) == bits([reference[p] for p in shuffled[:10]])
        assert f.read([]) == []


def test_pair_view_outside_closure():
    grid = default_grid(Semigroup.nat_add(1), order=1)
    f = pair_function_from_measure(AtomicMeasure(grid.semigroup, (((0.5,), 1.0),)), grid)
    with pytest.raises(MissingGridValue):
        f((3,), (0,))
    assert ((3,), (0,)) not in f.values
    assert ((2,), (2,)) in f.values
    assert "not a pair" not in f.values
    with pytest.raises(KeyError):
        f.values[(0,)]
    # a batch read names its first pair outside the closure, in read order, and computes nothing
    inside = [((0,), (0,)), ((2,), (1,))]
    with pytest.raises(MissingGridValue, match=r"^pair function undefined at \(\(4,\), \(0,\)\)$"):
        f.read(inside + [((4,), (0,)), ((0,), (3,)), ((5,), (5,))])
    with pytest.raises(MissingGridValue, match=r"^pair function undefined at \(\(0,\), \(3,\)\)$"):
        f.read([((0,), (3,))] + inside)
    with pytest.raises(MissingGridValue, match=r"^pair function undefined at \(\(0,\), \(3,\)\)$"):
        f.divided_by(2.0).read(inside + [((0,), (3,))])
    # a plain dict of values reads the same way
    table = PairFunction(grid, {pair: 1j for pair in inside})
    assert table.read(inside[::-1]) == [1j, 1j]
    with pytest.raises(MissingGridValue, match=r"^pair function undefined at \(\(1,\), \(1,\)\)$"):
        table.read(inside + [((1,), (1,)), ((4,), (0,))])


def test_divided_by_is_python_division():
    grid = default_grid(Semigroup.nat_add(1), order=1)
    mu = AtomicMeasure(grid.semigroup, (((0.5 + 0.1j,), 2.0 - 1j), ((0.2,), 0.3)))
    f = pair_function_from_measure(mu, grid)
    mass = f((0,), (0,))
    scaled = f.divided_by(mass)
    assert isinstance(scaled, PairFunction) and scaled.grid is grid
    assert len(scaled.values) == len(f.values)
    for key, value in f.values.items():
        assert scaled.values[key] == value / mass
        assert bits([scaled(*key)]) == bits([value / mass])
    pairs = list(f.values)[::-1]
    assert bits(scaled.read(pairs)) == bits([f(*pair) / mass for pair in pairs])
    # the quotient of a quotient divides twice, each time with Python's complex division
    twice = scaled.divided_by(3 - 1j)
    assert bits(twice.read(pairs)) == bits([f(*pair) / mass / (3 - 1j) for pair in pairs])
    with pytest.raises(MissingGridValue):
        scaled((5,), (0,))


# -------------------------------------------------------- transform block


@pytest.mark.parametrize("semigroup", [NAT_ADD2, NAT_MULT2, HALF_LINE], ids=["natadd", "natmult", "halfline"])
@pytest.mark.parametrize("count", [1, 3, 9])
def test_transform_block_entries(semigroup, count, rng):
    grid = default_grid(semigroup, order=2)
    mu = random_measure(rng, semigroup, count)
    symbol = random_polynomial_symbol(rng, semigroup.point_dim)
    rows, cols = grid.elements, grid.elements[::2]
    row_exponents, col_exponents = grid.exponents, grid.exponents[::2]
    fv = [symbol.at(p) for p in mu.points]
    for mode, weights in (
        (MODE_F, fv),
        (MODE_CONJ_F, [f.conjugate() for f in fv]),
        (MODE_ABS_F_SQ, [abs(f) ** 2 for f in fv]),
    ):
        block = transform_block(mu, symbol, row_exponents, col_exponents, mode)
        assert block.shape == (len(rows), len(cols))
        for (i, s), (j, t) in itertools.product(enumerate(rows), enumerate(cols)):
            # an entry does not depend on the block it is computed in
            assert block[i, j] == laplace_transform(mu, symbol, s, t, mode)
            expected = slow_laplace(semigroup, mu.atoms, weights, s, t)
            assert abs(block[i, j] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_transform_block_is_scalar_complex_arithmetic(rng):
    semigroup = NAT_ADD2
    grid = default_grid(semigroup, order=3)
    mu = random_measure(rng, semigroup, 5)
    symbol = random_polynomial_symbol(rng, semigroup.point_dim)
    wf = np.array(mu.weights, dtype=complex) * symbol_values(symbol, mu.points)
    block = transform_block(mu, symbol, grid.exponents, grid.exponents)
    for (i, s), (j, t) in itertools.product(enumerate(grid.elements), repeat=2):
        total = 0j
        for w, z in zip(wf, mu.points):
            total += complex(w) * char_eval(semigroup, z, s) * char_eval(semigroup, z, t).conjugate()
        assert block[i, j] == total


def test_transform_block_validates_elements_and_mode():
    # transform_block reads exponent arrays; element_exponents and laplace_transform validate elements
    mu = AtomicMeasure(NAT_ADD2, (((0.5, 0.5), 1.0),))
    unit, zero = element_exponents(NAT_ADD2, [[1, 0]]), element_exponents(NAT_ADD2, [(0, 0)])
    assert transform_block(mu, None, unit, element_exponents(NAT_ADD2, [(0, 1)]))[0, 0] == 0.25
    with pytest.raises(ValueError):
        element_exponents(NAT_ADD2, [(1, -1)])
    with pytest.raises(ValueError):
        laplace_transform(mu, None, (1, -1), (0, 0))
    with pytest.raises(ValueError):
        transform_block(mu, None, unit, zero, mode="square")
    assert transform_block(mu, None, element_exponents(NAT_ADD2, []), zero).shape == (0, 1)
