import math
import os
import warnings

import numpy as np
import pytest

from lapcov import (
    AtomicMeasure,
    DiscMeasure,
    Semigroup,
    Symbol,
    character_value_from_atom,
    disc_measure,
    disc_measures,
    luecking_check,
    moment_matrices,
    moment_matrix,
    numerical_rank,
    prony_pencils,
    prony_recover,
    rank_one_check,
    recover_point_mass,
    sup_norm,
    toeplitz_matrix,
)
from lapcov.errors import NumericOverflow, RankDeficientPencil
from lapcov.laplace import default_grid
from lapcov.scenario import load_scenario
from lapcov import toeplitz
from lapcov.toeplitz import DEFAULT_MATRIX_ORDER, DEFAULT_RANK_TOL, _ranks
from lapcov.measures import symbol_values
from lapcov.semigroups import character_matrix, element_exponents

from helpers import (
    random_character_point,
    random_multi_atom,
    random_phase,
    random_point_mass,
    random_polynomial_symbol,
    random_unit_disc,
    reference_disc_measure,
    reference_luecking_rank,
    reference_moment_matrix,
    reference_moment_sigma,
    reference_prony_recover,
    reference_prony_weights,
    reference_prony_table,
    reference_toeplitz_sigma,
    slow_moment,
    slow_moment_table,
    toeplitz_profile,
)

SG1 = Semigroup.nat_add(1)
SCENARIOS = os.path.join(os.path.dirname(__file__), "data", "scenarios")


def measure(*atoms):
    return AtomicMeasure(SG1, tuple(((complex(p),), complex(w)) for p, w in atoms))


# ------------------------------------------------------------ disc measure


def test_disc_measure_examples():
    nu = disc_measure(measure((0.5, 1)), None, (1,))
    assert nu.atoms == ((complex(1 / 6), 1),)

    mu = measure((0.3, 2), (-0.8, 1j))
    nu = disc_measure(mu, None, (0,))
    # at the identity every character equals 1 and the sup-norm is 1
    assert all(abs(a - 0.25) < 1e-15 for a in nu.positions)

    nu = disc_measure(measure((1, 1), (-1, 1)), None, (1,))
    assert sorted(a.real for a in nu.positions) == [-0.25, 0.25]
    assert nu.weights == (1, 1)


def test_disc_measure_stays_in_half_disc(rng):
    for _ in range(10):
        mu = random_multi_atom(rng, 1, 3)
        f = random_polynomial_symbol(rng, 1)
        for s in default_grid(SG1).elements:
            nu = disc_measure(mu, f, s)
            assert all(abs(a) <= 0.5 + 1e-12 for a in nu.positions)


def _sup_norm_scaled_disc_measure(mu, symbol, s):
    """The disc measure with its scale taken from ``sup_norm``, one char_eval per atom."""
    scale = 2.0 * (1.0 + sup_norm(mu, s))
    values = character_matrix(mu.semigroup, mu.points, element_exponents(mu.semigroup, (s,)))[:, 0]
    fv = symbol_values(symbol, mu.points)
    return DiscMeasure(tuple((values[k] / scale, abs(fv[k]) ** 2 * mu.weights[k]) for k in range(len(values))))


@pytest.mark.parametrize(
    "semigroup", [Semigroup.nat_add(2), Semigroup.nat_mult(3), Semigroup.half_line()], ids=lambda sg: sg.family
)
@pytest.mark.parametrize("count", [1, 4, 150])  # 150 atoms take character_matrix's array path
def test_disc_measure_is_byte_equal_to_the_sup_norm_scaling(rng, semigroup, count):
    points = [random_character_point(rng, semigroup) for _ in range(count)]
    # every third atom has weight zero: it still counts towards the sup-norm
    weights = [0.0 if k % 3 == 1 else rng.uniform(0.1, 2.0) * random_phase(rng) for k in range(count)]
    mu = AtomicMeasure(semigroup, tuple(zip(points, weights)))
    for symbol in (None, random_polynomial_symbol(rng, semigroup.point_dim)):
        for s in default_grid(semigroup).elements:
            got, want = disc_measure(mu, symbol, s), _sup_norm_scaled_disc_measure(mu, symbol, s)
            assert np.array(got.positions).tobytes() == np.array(want.positions).tobytes()
            assert np.array(got.weights).tobytes() == np.array(want.weights).tobytes()


def test_a_zero_weight_atom_still_sets_the_scale():
    # |rho| peaks at the uncharged atom: 0.9 sets the scale 2 (1 + 0.9)
    nu = disc_measure(measure((0.5, 1), (0.9, 0)), None, (1,))
    assert np.allclose(nu.positions, [0.5 / 3.8, 0.9 / 3.8], rtol=1e-15, atol=0)
    assert nu.weights == (1, 0)


FAMILIES = [Semigroup.nat_add(2), Semigroup.nat_mult(3), Semigroup.half_line()]


def _grid_measure(rng, semigroup, count):
    """Random atoms; every third has weight zero, which still counts towards the scale."""
    points = [random_character_point(rng, semigroup) for _ in range(count)]
    weights = [0.0 if k % 3 == 1 else rng.uniform(0.1, 2.0) * random_phase(rng) for k in range(count)]
    return AtomicMeasure(semigroup, tuple(zip(points, weights)))


def _same_bytes(got: DiscMeasure, want: DiscMeasure) -> bool:
    return (
        np.array(got.positions).tobytes() == np.array(want.positions).tobytes()
        and np.array(got.weights).tobytes() == np.array(want.weights).tobytes()
    )


@pytest.mark.parametrize("semigroup", FAMILIES, ids=lambda sg: sg.family)
@pytest.mark.parametrize("count", [1, 4, 150])  # 150 atoms take character_matrix's array path
def test_disc_measures_are_byte_equal_to_one_element_at_a_time(rng, semigroup, count):
    mu = _grid_measure(rng, semigroup, count)
    grid = default_grid(semigroup)
    elements = grid.elements
    for symbol in (None, random_polynomial_symbol(rng, semigroup.point_dim)):
        nus = disc_measures(mu, symbol, grid.exponents)
        assert len(nus) == len(elements)
        for nu, s in zip(nus, elements):
            assert _same_bytes(nu, reference_disc_measure(mu, symbol, s))
            assert _same_bytes(disc_measure(mu, symbol, s), nu)


def test_disc_measures_merge_each_element_apart():
    # at z = 1 every character is 1, so equal positions meet at the boundary between elements 1 and 2
    mu = measure((1, 2.0), (-1, 1.0))
    elements = ((0,), (1,), (2,))
    nus = disc_measures(mu, None, element_exponents(mu.semigroup, elements))
    for nu, s in zip(nus, elements):
        assert _same_bytes(nu, reference_disc_measure(mu, None, s))
    assert [nu.weights for nu in nus] == [(3,), (1, 2), (3,)]


def test_disc_measure_rejects_outside_atoms():
    with pytest.raises(ValueError):
        DiscMeasure(((0.7, 1.0),))


def test_disc_measure_merges_coincident_atoms():
    nu = DiscMeasure(((0.1, 1.0), (0.1, 1.0)))
    assert nu.atoms == ((0.1 + 0j, 2),)


def test_disc_measure_merge_chain_is_greedy_in_input_order():
    a, b, c = 0.3, 0.3 + 0.8e-12, 0.3 + 1.6e-12
    assert DiscMeasure(((a, 1), (b, 2), (c, 4))).atoms == ((a, 3), (c, 4))
    assert DiscMeasure(((c, 4), (b, 2), (a, 1))).atoms == ((a, 1), (c, 6))


# ---------------------------------------------------------- moment matrix


def test_moment_matrix_examples():
    single = moment_matrix(DiscMeasure(((0.3, 1.0),)), 2)
    assert np.allclose(single, [[1, 0.3], [0.3, 0.09]], atol=1e-15)

    pair = DiscMeasure(((0.25, 1.0), (-0.25, 1.0)))
    expected = slow_moment_table(pair.atoms, 2, 2)
    assert np.allclose(expected, [[2, 0], [0, 0.125]], atol=1e-15)
    assert np.allclose(moment_matrix(pair, 2), expected, atol=1e-15)

    null = moment_matrix(DiscMeasure(((0.2, 0.0), (-0.1, 0.0))), 3)
    assert np.all(null == 0)


def test_moment_matrix_matches_oracle(rng):
    for _ in range(5):
        atoms = tuple(
            (0.45 * random_phase(rng) * rng.uniform(), rng.normal() + 1j * rng.normal())
            for _ in range(3)
        )
        nu = DiscMeasure(atoms)
        table = moment_matrix(nu, 5, rows=6)
        oracle = slow_moment_table(nu.atoms, 6, 5)
        assert np.allclose(table, oracle, atol=1e-14)


def test_moment_matrices_keep_empty_and_zero_atom_measures():
    nus = [DiscMeasure(()), DiscMeasure(((0.1, 2.0),)), DiscMeasure(())]
    stack = moment_matrices(nus, 3, rows=4)
    assert stack.shape == (3, 4, 3)
    assert np.all(stack[0] == 0) and np.all(stack[2] == 0)
    assert stack[1].tobytes() == reference_moment_matrix(nus[1], 3, rows=4).tobytes()
    assert moment_matrices([], 2).shape == (0, 2, 2)
    with pytest.raises(ValueError):
        moment_matrices(nus, 0)


@pytest.mark.parametrize("semigroup", FAMILIES, ids=lambda sg: sg.family)
@pytest.mark.parametrize("count", [1, 4, 150])
@pytest.mark.parametrize("order", [1, 2, 6, 12])
def test_grid_stacks_are_byte_equal_to_one_element_at_a_time(rng, semigroup, count, order):
    mu = _grid_measure(rng, semigroup, count)
    grid = default_grid(semigroup)
    elements = grid.elements
    for symbol in (None, random_polynomial_symbol(rng, semigroup.point_dim)):
        nus = disc_measures(mu, symbol, grid.exponents)
        if count > 1:
            # at the identity every atom merges into one, elsewhere they stay apart: several matmul groups
            assert len(nus[0].atoms) == 1 and len({len(nu.atoms) for nu in nus}) > 1
        moments = moment_matrices(nus, order)
        t_sigmas = np.linalg.svd(toeplitz_matrix(moments), compute_uv=False)
        m_sigmas = np.linalg.svd(moments, compute_uv=False)
        m_ranks = _ranks(m_sigmas, DEFAULT_RANK_TOL).tolist()
        tables = moment_matrices(nus, order, rows=order + 1)
        for i, nu in enumerate(nus):
            assert moments[i].tobytes() == reference_moment_matrix(nu, order).tobytes()
            assert moment_matrix(nu, order).tobytes() == moments[i].tobytes()
            assert t_sigmas[i].tobytes() == reference_toeplitz_sigma(nu, order).tobytes()
            assert m_sigmas[i].tobytes() == reference_moment_sigma(nu, order).tobytes()
            assert m_ranks[i] == reference_luecking_rank(nu, order, DEFAULT_RANK_TOL)
            assert tables[i].tobytes() == reference_prony_table(nu, order).tobytes()


# -------------------------------------------------------- toeplitz matrix


def test_toeplitz_matrix_examples():
    origin = toeplitz_matrix(moment_matrix(DiscMeasure(((0.0, 1.0),)), 2))
    assert np.allclose(origin, [[1 / math.pi, 0], [0, 0]], atol=1e-15)

    single = toeplitz_matrix(moment_matrix(DiscMeasure(((0.3, 1.0),)), 1))
    assert np.allclose(single, [[1 / math.pi]], atol=1e-15)

    pair = DiscMeasure(((0.25, 1.0), (-0.25, 1.0)))
    T = toeplitz_matrix(moment_matrix(pair, 2))
    # oracle: T[1][1] = sqrt(4)/pi * sum m |a|^2 = (2/pi) * (1/8)
    t11 = 2 / math.pi * slow_moment(pair.atoms, 1, 1)
    assert abs(t11 - 1 / (4 * math.pi)) < 1e-15
    assert abs(T[1, 1] - t11) < 1e-15
    assert abs(T[0, 0] - 2 / math.pi) < 1e-15


def test_toeplitz_corner_is_mass_over_pi(rng):
    for _ in range(5):
        atoms = tuple((0.4 * random_phase(rng), rng.normal()) for _ in range(3))
        nu = DiscMeasure(atoms)
        T = toeplitz_matrix(moment_matrix(nu, 6))
        assert abs(T[0, 0] - nu.mass / math.pi) < 1e-13


def test_toeplitz_and_moment_ranks_agree(rng):
    for _ in range(10):
        count = int(rng.integers(1, 5))
        atoms = []
        while len(atoms) < count:
            a = 0.45 * random_phase(rng) * math.sqrt(rng.uniform())
            if all(abs(a - b) >= 0.1 for b, _ in atoms):
                atoms.append((a, rng.uniform(0.1, 2.0) * random_phase(rng)))
        nu = DiscMeasure(tuple(atoms))
        order = count + 3
        assert numerical_rank(toeplitz_matrix(moment_matrix(nu, order))) == numerical_rank(moment_matrix(nu, order))


# ---------------------------------------------------------- numerical rank


def test_numerical_rank_examples():
    assert numerical_rank(np.diag([1.0, 1e-12]), 1e-8) == 1
    assert numerical_rank(np.zeros((3, 3))) == 0
    pair = DiscMeasure(((0.25, 1.0), (-0.25, 1.0)))
    assert numerical_rank(moment_matrix(pair, 4)) == 2


# ----------------------------------------------------------- luecking check


def _luecking(nu, order=DEFAULT_MATRIX_ORDER):
    return luecking_check(nu, numerical_rank(moment_matrix(nu, order)))


def test_luecking_examples():
    assert _luecking(DiscMeasure(((0.3, 1.0),))) == (1, 1, True)
    assert _luecking(DiscMeasure(((0.25, 1.0), (-0.25, 1.0))), 6) == (2, 2, True)
    merged = DiscMeasure(((0.1, 1.0), (0.1, 1.0)))
    assert _luecking(merged, 6) == (1, 1, True)
    # a zero-weight atom is not charged: rank 1 against one atom
    assert _luecking(DiscMeasure(((0.1, 1.0), (-0.2, 0.0))), 6) == (1, 1, True)


def test_luecking_random_support_counts(rng):
    for _ in range(20):
        count = int(rng.integers(1, 7))
        atoms = []
        while len(atoms) < count:
            a = 0.45 * random_phase(rng) * math.sqrt(rng.uniform())
            if all(abs(a - b) >= 0.1 for b, _ in atoms):
                atoms.append((a, rng.uniform(0.1, 2.0) * random_phase(rng)))
        result = _luecking(DiscMeasure(tuple(atoms)), 12)
        assert result.agree, f"rank {result.rank} vs {result.atom_count} atoms"


# ----------------------------------------------------------- rank-one check


def test_rank_one_examples(rng):
    mu, _, _ = random_point_mass(rng, 1)
    for s in default_grid(SG1).elements:
        assert rank_one_check(toeplitz_profile(mu, None, s)) <= 1e-12

    two = measure((1, 0.5), (-1, 0.5))
    assert rank_one_check(toeplitz_profile(two, None, (1,))) >= 0.01

    # single atom with the symbol vanishing there: zero operator
    vanishing = Symbol.polynomial({(1,): 1})
    assert rank_one_check(toeplitz_profile(measure((0, 3)), vanishing, (1,))) == 0.0


def test_rank_one_check_reads_the_profile():
    assert rank_one_check(np.array([2.0, 0.5, 0.1])) == 0.25
    assert rank_one_check(np.array([3.0])) == 0.0
    assert rank_one_check(np.zeros(4)) == 0.0


# ------------------------------------------------------------------- prony


def test_prony_single_atom():
    result = prony_recover(moment_matrix(DiscMeasure(((0.3, 1.0),)), 4, rows=5))
    assert result.rank == 1
    (a, m), = result.atoms
    assert abs(a - 0.3) < 1e-12
    assert abs(m - 1) < 1e-12


def test_prony_two_atoms_with_weights():
    nu = DiscMeasure(((0.25, 2.0), (-0.25, 3.0)))
    result = prony_recover(moment_matrix(nu, 5, rows=6))
    assert result.rank == 2
    assert result.residual < 1e-10
    recovered = dict(result.atoms)
    positions = sorted(recovered, key=lambda a: a.real)
    assert abs(positions[0] + 0.25) < 1e-8 and abs(recovered[positions[0]] - 3) < 1e-8
    assert abs(positions[1] - 0.25) < 1e-8 and abs(recovered[positions[1]] - 2) < 1e-8


def test_prony_accepts_raw_moment_table():
    atoms = ((0.2 + 0.1j, 1.5 - 0.5j), (-0.3j, 2.0))
    table = slow_moment_table(atoms, 7, 6)
    result = prony_recover(table)
    assert result.rank == 2
    for (a, m), (b, w) in zip(result.atoms, sorted(atoms, key=lambda x: (x[0].real, x[0].imag))):
        assert abs(a - b) < 1e-9
        assert abs(m - w) < 1e-9


def test_prony_rejects_bad_table_shape():
    with pytest.raises(ValueError):
        prony_recover(np.ones((3, 3)))


def test_prony_rank_is_the_numerical_rank_of_the_unshifted_block(rng):
    tables = [np.zeros((5, 4), dtype=complex)]
    for _ in range(20):
        count, k = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        atoms = tuple((0.45 * random_unit_disc(rng), rng.uniform(0.1, 2.0) * random_phase(rng)) for _ in range(count))
        tables.append(moment_matrix(DiscMeasure(atoms), k, rows=k + 1))
        tables.append(rng.normal(size=(k + 1, k)) + 1j * rng.normal(size=(k + 1, k)))
    for table in tables:
        assert prony_recover(table).rank == numerical_rank(table[:-1, :])


def test_prony_zero_measure():
    result = prony_recover(moment_matrix(DiscMeasure(((0.1, 0.0),)), 3, rows=4))
    assert result.rank == 0
    assert result.atoms == ()


def test_prony_roundtrip_identity(rng):
    for _ in range(10):
        count = int(rng.integers(1, 5))
        atoms = []
        while len(atoms) < count:
            a = 0.45 * random_phase(rng) * math.sqrt(rng.uniform())
            if all(abs(a - b) >= 0.1 for b, _ in atoms):
                atoms.append((a, rng.uniform(0.1, 2.0) * random_phase(rng)))
        nu = DiscMeasure(tuple(atoms))
        result = prony_recover(moment_matrix(nu, count + 2, rows=count + 3))
        assert result.rank == count
        for (a, m), (b, w) in zip(result.atoms, nu.atoms):
            assert abs(a - b) < 1e-8
            assert abs(m - w) < 1e-8


def test_prony_route_matches_transform_route(rng):
    # the central cross-validation: unscaled pencil atom vs. transform ratio
    for _ in range(5):
        mu, point, _ = random_point_mass(rng, 1)
        f = random_polynomial_symbol(rng, 1, at_point=point)
        grid = default_grid(SG1)
        _, table = recover_point_mass(mu, f, grid)
        for s in grid.elements:
            nu = disc_measure(mu, f, s)
            result = prony_recover(moment_matrix(nu, 4, rows=5))
            assert result.rank == 1
            gamma2 = character_value_from_atom(mu, s, result.atoms[0][0])
            assert abs(gamma2 - table[s]) < 1e-8


def _recover_or_error(recover):
    try:
        return recover()
    except RankDeficientPencil as exc:
        return str(exc)


def _same_recovery(got, want) -> bool:
    """Byte-equal atoms, an equal residual and rank, or the same pencil error message."""
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return (
        got.rank == want.rank
        and got.residual == want.residual
        and np.array(got.atoms, dtype=complex).tobytes() == np.array(want.atoms, dtype=complex).tobytes()
    )


def _assert_batched_pencils_match_one_table_at_a_time(tables, rel_tol=DEFAULT_RANK_TOL):
    pencils = prony_pencils(tables, rel_tol)
    assert len(pencils) == len(tables)
    for table, pencil in zip(tables, pencils):
        want = _recover_or_error(lambda: reference_prony_recover(table, rel_tol))
        assert _same_recovery(_recover_or_error(lambda: prony_recover(table, pencil=pencil)), want)
        assert _same_recovery(_recover_or_error(lambda: prony_recover(table, rel_tol=rel_tol)), want)
    return pencils


@pytest.mark.parametrize("k_max", [1, 2, 4, 6])
def test_prony_pencils_of_mixed_ranks_match_one_table_at_a_time(rng, k_max):
    # measures of 0-4 atoms, the zero table and full-rank noise share one stack: several rank groups
    tables = [np.zeros((k_max + 1, k_max), dtype=complex)]
    for count in (0, 1, 2, 3, 4, 1, 2, 3, 4):
        atoms = tuple((0.45 * random_unit_disc(rng), rng.uniform(0.1, 2.0) * random_phase(rng)) for _ in range(count))
        tables.append(moment_matrix(DiscMeasure(atoms or ((0.1, 0.0),)), k_max, rows=k_max + 1))
    tables += [rng.normal(size=(k_max + 1, k_max)) + 1j * rng.normal(size=(k_max + 1, k_max)) for _ in range(3)]
    pencils = _assert_batched_pencils_match_one_table_at_a_time(np.array(tables))
    ranks = [pencil.rank for pencil in pencils]
    assert ranks[:2] == [0, 0]
    assert set(ranks) == set(range(min(k_max, 4) + 1)) | {k_max}


@pytest.mark.parametrize("semigroup", FAMILIES, ids=lambda sg: sg.family)
@pytest.mark.parametrize("k_max", [1, 2, 4, 6])
def test_prony_pencils_on_grids_match_one_table_at_a_time(rng, semigroup, k_max):
    mu = _grid_measure(rng, semigroup, 4)
    for symbol in (None, random_polynomial_symbol(rng, semigroup.point_dim)):
        nus = disc_measures(mu, symbol, default_grid(semigroup).exponents)
        _assert_batched_pencils_match_one_table_at_a_time(moment_matrices(nus, k_max, rows=k_max + 1))


def test_prony_pencil_errors_match_one_table_at_a_time():
    # a rank tolerance this small keeps noise directions in the pencil of some elements
    scenario = load_scenario(os.path.join(SCENARIOS, "two_atoms_natadd1.json"))
    nus = disc_measures(scenario.measure, scenario.symbol, scenario.grid.exponents)
    pencils = _assert_batched_pencils_match_one_table_at_a_time(moment_matrices(nus, 6, rows=7), 1e-300)
    errors = [i for i, pencil in enumerate(pencils) if pencil.error is not None]
    assert errors and errors != list(range(len(pencils)))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


def test_prony_pencil_weights_and_misfits_are_bit_equal_to_one_table_at_a_time(rng, monkeypatch):
    # ranks 0, 1, 2 and 4 in one stack, plus a singular pencil and one whose eigenvalues are not finite
    k_max = 6
    tables = [np.zeros((k_max + 1, k_max), dtype=complex)]
    for count in (1, 2, 4, 1, 2, 4, 2, 1):
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, count)) + np.arange(count) * 2.0 * math.pi / count
        atoms = tuple((0.4 * np.exp(1j * a), rng.uniform(0.5, 2.0) * random_phase(rng)) for a in angles)
        tables.append(moment_matrix(DiscMeasure(atoms), k_max, rows=k_max + 1))
    singular, not_finite = 3, 5
    # unshifted singular values 1 and 5e-14: two count at this tolerance, and the second is below 1e-13
    tables.insert(singular, np.zeros((k_max + 1, k_max), dtype=complex))
    tables[singular][0, 0], tables[singular][1, 1] = 1.0, 5e-14
    tables = np.array(tables)
    rel_tol = 1e-14

    eigvals = np.linalg.eigvals

    def one_not_finite(restricted):
        # the rank-one group is elements 1, 5 and 9, in that order
        values = eigvals(restricted)
        if restricted.shape[-1] == 1:
            values[1, 0] = complex(math.inf, 0.0)
        return values

    monkeypatch.setattr(np.linalg, "eigvals", one_not_finite)
    pencils = prony_pencils(tables, rel_tol)
    monkeypatch.undo()

    assert [pencil.rank for pencil in pencils] == [0, 1, 2, 2, 4, 1, 2, 4, 2, 1]
    assert str(pencils[singular].error) == "restricted moment pencil is numerically singular"
    assert str(pencils[not_finite].error) == "pencil eigenvalues are not finite"
    for i, (table, pencil) in enumerate(zip(tables, pencils)):
        if i in (singular, not_finite):
            continue
        assert pencil.error is None
        if pencil.rank == 0:
            assert pencil.weights.size == 0 and pencil.residual == 0.0
            continue
        weights, misfit = reference_prony_weights(table, pencil.positions)
        assert _bits(pencil.weights) == _bits(weights)
        assert pencil.residual == misfit / np.linalg.norm(table) and type(pencil.residual) is float


def test_a_table_norm_that_overflows_is_raised_by_its_own_element():
    # entries near 1e160 are finite, and so are the pencil and its weights, but their squares are not
    good = moment_matrix(DiscMeasure(((0.3, 1.0), (-0.2j, 0.5))), 4, rows=5)
    huge = good * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pencils = prony_pencils(np.array([good, huge, good * 2.0]))
    assert [pencil.rank for pencil in pencils] == [2, 2, 2]
    assert str(pencils[1].error) == "a moment table's norm overflows the float range"
    assert isinstance(pencils[1].error, NumericOverflow)
    with pytest.raises(NumericOverflow, match="a moment table's norm overflows"):
        prony_recover(huge, pencil=pencils[1])
    with pytest.raises(NumericOverflow, match="a moment table's norm overflows"):
        prony_recover(huge)
    for table, pencil in ((good, pencils[0]), (good * 2.0, pencils[2])):
        want = reference_prony_recover(table)
        assert pencil.error is None and pencil.residual == want.residual
        assert _same_recovery(prony_recover(table, pencil=pencil), want)


def test_a_failed_least_squares_solve_is_raised_by_its_own_element(capfd):
    # the last moment row of 1e300 gives a pencil eigenvalue near 7e299 whose powers overflow the
    # design: that table alone is refused before LAPACK sees it, without a warning or LAPACK's own output
    good = np.array([[1.0, 0.3], [0.2, 1.0], [0.5, -0.25j]], dtype=complex)
    failing = np.array([[1.0, 0.3], [0.2, 1.0], [1e300, 1e300]], dtype=complex)
    singular = np.array([[1.0, 0.0], [1.0, 1e-14], [0.0, 0.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pencils = prony_pencils(np.array([good, failing, good * 2.0, singular]), 1e-15)
        assert [pencil.rank for pencil in pencils] == [2, 2, 2, 2]
        assert _same_recovery(prony_recover(good, pencil=pencils[0]), reference_prony_recover(good, 1e-15))
        assert _same_recovery(prony_recover(good * 2.0, pencil=pencils[2]), reference_prony_recover(good * 2.0, 1e-15))
        with pytest.raises(NumericOverflow, match="a Prony design overflows the float range"):
            prony_recover(failing, pencil=pencils[1])
        with pytest.raises(RankDeficientPencil):
            prony_recover(singular, pencil=pencils[3])
        with pytest.raises(NumericOverflow):
            prony_recover(failing)
    assert capfd.readouterr().out == ""


def test_a_non_converging_solve_is_raised_by_its_own_element(monkeypatch):
    # a stand-in for the stacked solver fails on every stack that holds the table starting with 7
    good = np.array([[1.0, 0.3], [0.2, 1.0], [0.5, -0.25j]], dtype=complex)
    failing = np.array([[7.0, 0.3], [0.2, 1.0], [0.5, -0.25j]], dtype=complex)
    solve = toeplitz._LSTSQ
    calls = []

    def stand_in(design, rhs, *args, **kwargs):
        calls.append(design.ndim)
        if (rhs[..., 0, 0] == 7.0).any():
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
        return solve(design, rhs, *args, **kwargs)

    monkeypatch.setattr(toeplitz, "_LSTSQ", stand_in)
    pencils = prony_pencils(np.array([good, failing, good * 2.0]), 1e-15)
    assert calls == [3, 2, 2, 2], "one stacked solve, then one solve per table"
    assert [pencil.rank for pencil in pencils] == [2, 2, 2]
    assert _same_recovery(prony_recover(good, pencil=pencils[0]), reference_prony_recover(good, 1e-15))
    assert _same_recovery(prony_recover(good * 2.0, pencil=pencils[2]), reference_prony_recover(good * 2.0, 1e-15))
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge in Linear Least Squares"):
        prony_recover(failing, pencil=pencils[1])


def test_the_stacked_least_squares_gufunc_is_np_linalg_lstsq(rng):
    # the gufunc resolved at import, on a stack, against np.linalg.lstsq one design at a time
    design = rng.normal(size=(5, 42, 3)) + 1j * rng.normal(size=(5, 42, 3))
    rhs = rng.normal(size=(5, 42)) + 1j * rng.normal(size=(5, 42))
    stacked = toeplitz._lstsq_weights(design, rhs)
    for d, b, x in zip(design, rhs, stacked):
        assert _bits(x) == _bits(np.linalg.lstsq(d, b, rcond=None)[0])


def test_character_value_from_atom_inverts_scaling():
    mu = measure((0.5, 1))
    a = disc_measure(mu, None, (1,)).positions[0]
    assert abs(character_value_from_atom(mu, (1,), a) - 0.5) < 1e-15
    assert sup_norm(mu, (1,)) == 0.5


def test_a_moment_stack_that_overflows_raises_before_lapack():
    # each weight is finite, their sum in the zeroth moment is not
    nu = DiscMeasure(((0.25, 1e308), (0.125, 1e308)))
    with pytest.raises(NumericOverflow, match="a moment matrix overflows"):
        moment_matrices((nu,), 4)
    with pytest.raises(NumericOverflow, match="a moment matrix overflows"):
        moment_matrices((nu,), 4, rows=5)
    # finite moments whose Toeplitz entries are not: T[0, 1] = sqrt(2) / pi * M[1, 0]
    moments = np.zeros((2, 2), dtype=complex)
    moments[1, 0] = 1.7e308 * math.pi
    with pytest.raises(NumericOverflow, match="a Toeplitz matrix overflows"):
        toeplitz_matrix(moments)


def test_a_restricted_pencil_that_overflows_never_reaches_eigvals():
    # the unshifted block's one singular direction is row 3, whose shift is the huge row 4
    table = np.zeros((5, 4), dtype=complex)
    table[3], table[4] = 1.0, 1.7e308
    (pencil,) = prony_pencils(table[None])
    assert pencil.rank == 1 and isinstance(pencil.error, NumericOverflow)
    with pytest.raises(NumericOverflow, match="a restricted pencil overflows"):
        prony_recover(table)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_table_that_is_not_finite_is_refused_before_lapack(bad):
    table = np.eye(5, 4, dtype=complex)
    table[2, 1] = bad
    with pytest.raises(ValueError, match="moment table entries must be finite"):
        prony_recover(table)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        numerical_rank(table)
