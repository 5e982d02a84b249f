import itertools

import pytest

from lapcov import (
    AtomicMeasure,
    MissingGridValue,
    PairFunction,
    Semigroup,
    ShiftCombination,
    adjoint_op,
    admissible_generator,
    apply_shift,
    bv_norm,
    char_eval,
    compose,
    default_grid,
    factorization_residual,
    identity_op,
    pair_function_from_measure,
    positive_definite_check,
    semicharacter_defect,
    semicharacter_from_point,
    semigroups,
)
from lapcov.errors import GridTooLarge

from helpers import random_character_point, random_nonnegative_measure

SG1 = Semigroup.nat_add(1)
ALL_KINDS = [Semigroup.nat_add(1), Semigroup.nat_mult(2), Semigroup.half_line()]
PHASES = (1, -1, 1j, -1j)


def measure(*atoms):
    return AtomicMeasure(SG1, tuple(((complex(p),), complex(w)) for p, w in atoms))


def delta_half_hat(order=2):
    grid = default_grid(SG1, order=order)
    return pair_function_from_measure(measure((0.5, 1)), grid), grid


# -------------------------------------------------------------- apply_shift


def test_apply_shift_identity():
    f, _ = delta_half_hat()
    assert apply_shift(identity_op(SG1), f, ((1,), (2,))) == f((1,), (2,))


def test_apply_shift_translates():
    f, _ = delta_half_hat()
    op = ShiftCombination((((1,), (0,), 1 + 0j),))
    assert apply_shift(op, f, ((0,), (0,))) == 0.5


def test_apply_shift_averaged_real_part():
    zeta = 0.3 + 0.4j
    grid = default_grid(SG1, order=2)
    f = pair_function_from_measure(AtomicMeasure(SG1, (((zeta,), 1.0),)), grid)
    op = ShiftCombination((((1,), (0,), 0.5), ((0,), (1,), 0.5)))
    value = apply_shift(op, f, ((0,), (0,)))
    assert abs(value - zeta.real) < 1e-15


def test_apply_shift_outside_closure():
    f, grid = delta_half_hat(order=1)
    far = (max(s[0] for s in grid.pairs_closure) + 1,)
    op = ShiftCombination(((far, (0,), 1 + 0j),))
    with pytest.raises(MissingGridValue):
        apply_shift(op, f, (far, (0,)))


# ------------------------------------------------------------------ adjoint


def test_adjoint_examples():
    op = ShiftCombination((((1,), (0,), 1j),))
    assert adjoint_op(op).terms == (((0,), (1,), -1j),)
    ident = identity_op(SG1)
    assert adjoint_op(ident) == ident.normalized()
    mixed = ShiftCombination((((1,), (2,), 2 - 1j), ((0,), (1,), 0.5j)))
    assert adjoint_op(adjoint_op(mixed)) == mixed.normalized()


def test_adjoint_distributes_over_composition():
    op1 = ShiftCombination((((1,), (0,), 1j), ((2,), (1,), 0.5)))
    op2 = ShiftCombination((((0,), (1,), 2.0), ((1,), (1,), -1j)))
    lhs = adjoint_op(compose(SG1, op1, op2))
    rhs = compose(SG1, adjoint_op(op1), adjoint_op(op2))
    assert lhs == rhs


# ------------------------------------------------- admissible generators


def test_partition_of_identity():
    pair = ((1,), (0,))
    total = ShiftCombination(
        tuple(t for phase in PHASES for t in admissible_generator(SG1, pair, phase).terms)
    ).normalized()
    assert total == identity_op(SG1).normalized()


def test_generator_on_constant_function():
    grid = default_grid(SG1, order=2)
    ones = PairFunction(
        grid, {p: 1 + 0j for p in itertools.product(grid.pairs_closure, repeat=2)}
    )
    op = admissible_generator(SG1, (((1,), (0,))), 1)
    assert apply_shift(op, ones, ((0,), (0,))) == 0.5


def test_generators_are_self_adjoint():
    for phase in PHASES:
        op = admissible_generator(SG1, (((2,), (1,))), phase)
        assert adjoint_op(op) == op.normalized()


def test_generator_coincident_pair_merges_terms():
    op = admissible_generator(SG1, (((1,), (1,))), 1j)
    # E_a == E_{a*}: the two phase terms cancel to Re(phase)/4 = 0
    assert op == ShiftCombination(((((0,), (0,), 0.25 + 0j)),)).normalized()


def test_generator_rejects_bad_phase():
    with pytest.raises(ValueError):
        admissible_generator(SG1, (((1,), (0,))), 0.5)


# ---------------------------------------------------------------- bv norm


def test_bv_norm_identity_family():
    f, _ = delta_half_hat()
    assert bv_norm(f, [identity_op(SG1)]) == 1.0


def test_bv_norm_four_generator_family():
    f, _ = delta_half_hat()
    pair = ((1,), (0,))
    ops = [admissible_generator(SG1, pair, phase) for phase in PHASES]
    # oracle, term by term: |1/4 (1 + phase/2 * 0.5 + conj(phase)/2 * 0.5)|
    oracle = sum(abs(0.25 * (1 + phase * 0.25 + phase.conjugate() * 0.25)) for phase in map(complex, PHASES))
    assert oracle == 1.0
    assert abs(bv_norm(f, ops) - 1.0) < 1e-15


def test_bv_norm_zero_function():
    grid = default_grid(SG1, order=1)
    zero = PairFunction(grid, {p: 0j for p in itertools.product(grid.pairs_closure, repeat=2)})
    assert bv_norm(zero, [identity_op(SG1)]) == 0.0


# ----------------------------------------------------- positive definiteness


def test_pd_for_nonnegative_measures(rng):
    grid = default_grid(SG1)
    for _ in range(10):
        mu = random_nonnegative_measure(rng, 1, int(rng.integers(1, 5)))
        f = pair_function_from_measure(mu, grid)
        points = [((0,), (0,)), ((1,), (0,)), ((2,), (1,)), ((0,), (2,))]
        assert positive_definite_check(f, points).is_positive


def test_pd_signed_measure_fails():
    grid = default_grid(SG1, order=2)
    f = pair_function_from_measure(measure((1, 1), (-1, -1)), grid)
    points = [((0,), (0,)), ((1,), (0,))]
    result = positive_definite_check(f, points)
    # oracle: Gram [[0, 2], [2, 0]] has eigenvalues -2, 2
    assert abs(result.min_eigenvalue + 2.0) < 1e-14
    assert not result.is_positive


def test_pd_constant_one():
    grid = default_grid(SG1, order=1)
    ones = PairFunction(grid, {p: 1 + 0j for p in itertools.product(grid.pairs_closure, repeat=2)})
    result = positive_definite_check(ones, [((0,), (0,)), ((1,), (1,)), ((1,), (0,))])
    assert result.is_positive
    assert result.min_eigenvalue >= -1e-15


# --------------------------------------------------------- semicharacters


def test_semicharacter_defect_of_true_characters(rng):
    for sg in ALL_KINDS:
        grid = default_grid(sg, order=2)
        pairs = list(itertools.product(grid.elements[:3], repeat=2))
        for _ in range(5):
            point = random_character_point(rng, sg)
            eta = semicharacter_from_point(sg, point, grid)
            assert semicharacter_defect(eta, pairs) <= 1e-12


def test_semicharacter_from_point_is_the_unit_point_mass_table(rng, monkeypatch):
    for sg in ALL_KINDS:
        grid = default_grid(sg, order=2)
        point = random_character_point(rng, sg)
        eta = semicharacter_from_point(sg, point, grid)
        for s, t in itertools.product(grid.pairs_closure, repeat=2):
            want = char_eval(sg, point, s) * char_eval(sg, point, t).conjugate()
            assert abs(eta(s, t) - want) <= 1e-15 * max(1.0, abs(want))
    # the point is checked as an atom's is
    with pytest.raises(ValueError, match="^expected character point of length 2, got 1$"):
        semicharacter_from_point(Semigroup.nat_add(2), (0.5,), default_grid(Semigroup.nat_add(2), order=1))
    with pytest.raises(ValueError, match="^half-line character points need Re z >= 0$"):
        semicharacter_from_point(Semigroup.half_line(), (-5 + 0j,), default_grid(Semigroup.half_line(), order=2))
    # and the table is bounded as every pair table is
    monkeypatch.setattr(semigroups, "_MAX_PAIR_ENTRIES", 1000)
    with pytest.raises(GridTooLarge, match="^a grid closure of 41 elements has 1681 pairs, more than the supported 1000$"):
        semicharacter_from_point(SG1, (0.5,), default_grid(SG1, order=20))


def test_semicharacter_defect_two_atom_transform():
    grid = default_grid(SG1, order=2)
    f = pair_function_from_measure(measure((1, 0.5), (-1, 0.5)), grid)
    assert semicharacter_defect(f, [((1,), (0,))]) > 0.5


def test_semicharacter_defect_trivial():
    grid = default_grid(SG1, order=1)
    ones = PairFunction(grid, {p: 1 + 0j for p in itertools.product(grid.pairs_closure, repeat=2)})
    assert semicharacter_defect(ones, [((0,), (1,)), ((1,), (1,))]) == 0.0


def test_factorization_matches_semicharacter_defect():
    # normalized transform of a point mass is a semicharacter; a two-atom
    # transform is neither factorizable nor a semicharacter
    grid = default_grid(SG1, order=2)
    pairs = list(itertools.product(grid.elements, repeat=2))

    one_atom = pair_function_from_measure(measure((0.5 + 0.2j, 2)), grid)
    mass = one_atom((0,), (0,))
    normalized = PairFunction(grid, {k: v / mass for k, v in one_atom.values.items()})
    assert semicharacter_defect(normalized, pairs) <= 1e-12
    assert max(abs(factorization_residual(one_atom, s, t)) for s, t in pairs) <= 1e-12

    two_atoms = pair_function_from_measure(measure((1, 0.5), (-1, 0.5)), grid)
    normalized = PairFunction(grid, {k: v for k, v in two_atoms.values.items()})
    assert semicharacter_defect(normalized, pairs) > 1e-3
    assert max(abs(factorization_residual(two_atoms, s, t)) for s, t in pairs) > 1e-3
