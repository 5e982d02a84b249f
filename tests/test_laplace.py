import cmath
import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lapcov import (
    AtomicMeasure,
    char_eval,
    EvaluationGrid,
    Semigroup,
    Symbol,
    Tolerances,
    covariance_residual,
    decide_covariance,
    default_grid,
    degenerate_check,
    factorization_residual,
    laplace_transform,
    multiplicativity_defect,
    pair_function_from_measure,
    recover_point_mass,
    total_mass,
    total_variation,
)
import lapcov.laplace as laplace
from lapcov.measures import MODE_ABS_F_SQ, MODE_CONJ_F, charges, normalized, symbol_values
from lapcov.randomvectors import DiscreteRandomVector, as_measure, decide_constant_vector
from lapcov.semigroups import character_matrix
from lapcov.errors import FMuIntegralZero, MassZero
from lapcov.laplace import (
    DEGENERATE,
    F_MU_ZERO,
    MASS_ZERO_ANALYTIC,
    MASS_ZERO_NEITHER,
    NOT_POINT_MASS,
    POINT_MASS,
    mass_vanishes,
    read_point_mass,
)

from helpers import (
    random_character_point,
    random_multi_atom,
    random_nonnegative_measure,
    random_phase,
    random_point_mass,
    random_polynomial_symbol,
    slow_covariance_residual,
    slow_laplace,
)

SG1 = Semigroup.nat_add(1)


def measure(*atoms, sg=SG1):
    return AtomicMeasure(sg, tuple(((complex(p),), complex(w)) for p, w in atoms))


# ------------------------------------------------------------- transforms


def test_laplace_transform_examples():
    mu = measure((0.5, 1))
    assert laplace_transform(mu, None, (1,), (1,)) == 0.25

    mu = measure((0.3, 2 - 1j), (0.8j, 0.5))
    assert laplace_transform(mu, None, (0,), (0,)) == total_mass(mu)

    mu = measure((1, 0.5), (-1, 0.5))
    # oracle: 0.5*1 + 0.5*(-1) = 0
    oracle = slow_laplace(SG1, mu.atoms, [1, 1], (1,), (0,))
    assert oracle == 0
    assert laplace_transform(mu, None, (1,), (0,)) == 0


def test_halfplane_transform_examples():
    import math

    sg = Semigroup.half_line()
    mu = AtomicMeasure(sg, (((1 + 0j,), 1.0),))
    assert abs(laplace_transform(mu, None, math.log(2), 0.0) - 0.5) < 1e-15
    mu_i = AtomicMeasure(sg, (((1j,), 1.0),))
    value = laplace_transform(mu_i, None, math.pi, math.pi)
    # exp(-i pi) * exp(i pi) = 1
    assert abs(value - 1.0) < 1e-12
    assert laplace_transform(mu, None, 0.0, 0.0) == total_mass(mu)


# --------------------------------------------------------------- residual


def test_covariance_residual_point_mass_is_zero():
    mu = measure((0.4 + 0.2j, 3 - 2j))
    f = Symbol.polynomial({(0,): 1, (1,): 0.5})
    for s, t in [((0,), (0,)), ((1,), (2,)), ((3,), (1,))]:
        assert abs(covariance_residual(mu, f, s, t)) < 1e-13


def test_covariance_residual_frozen_examples():
    mu = measure((1, 0.5), (-1, 0.5))
    # oracle: 1*(1/2+1/2) - 0*0 = 1
    assert slow_covariance_residual(SG1, mu.atoms, [1, 1], (1,), (1,)) == 1
    assert covariance_residual(mu, None, (1,), (1,)) == 1

    mu = measure((1, 1), (-1, -1))
    # oracle: 0*mu|F|^2(1,1) - 2*2 = -4
    assert slow_covariance_residual(SG1, mu.atoms, [1, 1], (1,), (1,)) == -4
    assert covariance_residual(mu, None, (1,), (1,)) == -4


def test_residual_quadratic_scaling():
    mu = measure((0.6, 1 - 0.5j), (-0.2j, 0.75), (0.9, -1.1))
    f = Symbol.polynomial({(0,): 0.3, (2,): 1})
    base = covariance_residual(mu, f, (2,), (1,))
    for lam in (2.0, 1j):
        scaled = AtomicMeasure(SG1, tuple((p, lam * w) for p, w in mu.atoms))
        value = covariance_residual(scaled, f, (2,), (1,))
        assert abs(value - lam**2 * base) <= 1e-12 * abs(base)


def test_residual_hermitian_symmetry_for_nonnegative_measures(rng):
    for _ in range(10):
        mu = random_nonnegative_measure(rng, 1, 3)
        f = random_polynomial_symbol(rng, 1)
        for s, t in [((1,), (2,)), ((0,), (3,)), ((2,), (2,))]:
            lhs = covariance_residual(mu, f, t, s)
            rhs = covariance_residual(mu, f, s, t).conjugate()
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ------------------------------------------------------------- degenerate


def test_degenerate_neither_side_vanishes():
    mu = measure((1, 1), (-1, -1))
    grid = default_grid(SG1)
    assert decide_covariance(mu, None, grid).degenerate_case == MASS_ZERO_NEITHER
    # oracle at s=1: 1*1 + (-1)*(-1) = 2 != 0
    assert slow_laplace(SG1, mu.atoms, [1, 1], (1,), (0,)) == 2


def test_degenerate_symbol_vanishing_on_support():
    # F(z) = z(z - 0.5) vanishes at both atoms; both sides vanish and the
    # analytic case is reported
    mu = measure((0, 1), (0.5, -1))
    f = Symbol.polynomial({(1,): -0.5, (2,): 1})
    grid = default_grid(SG1)
    assert decide_covariance(mu, f, grid).degenerate_case == MASS_ZERO_ANALYTIC


def test_degenerate_affine_symbol():
    mu = measure((1, 1), (-1, -1))
    f = Symbol.polynomial({(0,): 1, (1,): 1})
    # oracle at s=0 (atoms sorted, -1 first): (1-1)*(-1) + (1+1)*1 = 2 != 0
    f_sorted = [f.at(p) for p in mu.points]
    assert slow_laplace(SG1, mu.atoms, f_sorted, (0,), (0,)) == 2
    assert decide_covariance(mu, f, default_grid(SG1)).degenerate_case == MASS_ZERO_NEITHER


# ----------------------------------------------------------------- recover


def test_recover_point_mass_examples():
    grid = default_grid(SG1)
    mass, table = recover_point_mass(measure((0.2, 3)), None, grid)
    assert mass == 3
    assert abs(table[(1,)] - 0.2) < 1e-15
    assert abs(table[(2,)] - 0.04) < 1e-15
    assert table[(0,)] == 1

    mass, table = recover_point_mass(measure((1, 0.5), (-1, 0.5)), None, grid)
    assert mass == 1
    assert table[(1,)] == 0
    assert table[(2,)] == 1


def test_recover_identity_is_one(rng):
    for _ in range(10):
        mu, _, _ = random_point_mass(rng, 2)
        f = random_polynomial_symbol(rng, 2, at_point=mu.points[0])
        _, table = recover_point_mass(mu, f, default_grid(mu.semigroup))
        assert table[(0, 0)] == 1


def test_recover_raises_when_f_mu_vanishes():
    mu = measure((0.5, 2))
    with pytest.raises(FMuIntegralZero):
        recover_point_mass(mu, Symbol.constant(0), default_grid(SG1))


# ------------------------------------------------ multiplicativity defect


def test_multiplicativity_defect_examples():
    grid = default_grid(SG1, order=1)  # elements (0,), (1,); closure adds (2,)
    point_mass_values = np.array([1 + 0j, 0.5 + 0.5j, (0.5 + 0.5j) ** 2])
    assert multiplicativity_defect(point_mass_values, grid) <= 1e-12

    # from the two-atom measure: gamma = {0: 1, 1: 0, 2: 1}
    assert multiplicativity_defect(np.array([1, 0, 1], dtype=complex), grid) == 1

    assert multiplicativity_defect(np.ones(3, dtype=complex), grid) == 0


# ---------------------------------------------------------- factorization


def test_factorization_residual_examples():
    grid = default_grid(SG1, order=2)
    # exactly factorized pair function from a point mass
    mu = measure((0.5 + 0.1j, 2.5))
    f = pair_function_from_measure(mu, grid)
    for s, t in itertools.product(grid.elements, repeat=2):
        assert abs(factorization_residual(f, s, t)) < 1e-12

    two = pair_function_from_measure(measure((1, 0.5), (-1, 0.5)), grid)
    assert abs(factorization_residual(two, (1,), (1,)) - 1) < 1e-15

    from lapcov import PairFunction

    zero = PairFunction(grid, {pair: 0j for pair in itertools.product(grid.pairs_closure, repeat=2)})
    assert factorization_residual(zero, (1,), (2,)) == 0


def test_factorization_vanishes_iff_point_mass(rng):
    grid = default_grid(SG1)
    for _ in range(5):
        mu, _, _ = random_point_mass(rng, 1)
        f = pair_function_from_measure(mu, grid)
        top = max(
            abs(factorization_residual(f, s, t))
            for s, t in itertools.product(grid.elements, repeat=2)
        )
        scale = max(abs(v) for v in f.values.values()) ** 2
        assert top <= 1e-12 * scale
        assert decide_covariance(mu, None, grid).kind == POINT_MASS
    for _ in range(5):
        mu = random_multi_atom(rng, 1, 3)
        f = pair_function_from_measure(mu, grid)
        top = max(
            abs(factorization_residual(f, s, t))
            for s, t in itertools.product(grid.elements, repeat=2)
        )
        assert top > 1e-6
        assert decide_covariance(mu, None, grid).kind == NOT_POINT_MASS


# ----------------------------------------------------------------- decide


def test_decide_point_mass_example():
    sg = Semigroup.nat_add(2)
    mu = AtomicMeasure(sg, (((0.3, -0.1j), 2.0),))
    verdict = decide_covariance(mu)
    assert verdict.kind == POINT_MASS
    assert verdict.mass == 2
    assert verdict.point_resolved
    assert abs(verdict.point[0] - 0.3) < 1e-14
    assert abs(verdict.point[1] + 0.1j) < 1e-14
    assert verdict.character_defect <= 1e-12


def test_decide_two_atoms_example():
    mu = measure((1, 0.5), (-1, 0.5))
    verdict = decide_covariance(mu)
    assert verdict.kind == NOT_POINT_MASS
    assert verdict.witness == ((1,), (1,))
    assert verdict.witness_residual == 1
    # normalized: |R| / (sum |w|^2 * max|rho|^2) = 1 / 0.5
    assert verdict.max_residual == 2.0


def pairwise_residual(sg, atoms, symbol, elements):
    """R(s, t) = sum_{j<k} w_j w_k D_jk(s) conj(D_jk(t)), D_jk(s) = F(z_j) rho_j(s) - F(z_k) rho_k(s).

    Also returns the residual scale sum |w|^2 * max |F(z_k) rho_k(s)|^2.
    """
    values = np.array([[symbol.at(z) * char_eval(sg, z, s) for s in elements] for z, _ in atoms])
    residual = np.zeros((len(elements), len(elements)), dtype=complex)
    for (j, (_, wj)), (k, (_, wk)) in itertools.combinations(enumerate(atoms), 2):
        gap = values[j] - values[k]
        residual += wj * wk * np.outer(gap, gap.conj())
    scale = sum(abs(w) ** 2 for _, w in atoms) * float(np.abs(values).max()) ** 2
    return residual, scale


@pytest.mark.parametrize(
    "sg,order", [(Semigroup.nat_add(2), 8), (Semigroup.nat_mult(3), 3), (Semigroup.half_line(), 32)]
)
def test_residual_matches_the_pairwise_form(rng, sg, order):
    # the paper's mechanism: R vanishes exactly when every charged pair of atoms
    # has equal F-weighted characters; checks the math, where bit-equality checks the bits
    grid = default_grid(sg, order=order)
    for _ in range(8):
        count = int(rng.integers(2, 7))
        points = [random_character_point(rng, sg) for _ in range(count)]
        while True:
            weights = [rng.uniform(0.1, 2.0) * random_phase(rng) for _ in range(count)]
            if abs(sum(weights)) >= 0.05 * sum(abs(w) for w in weights):
                break
        mu = AtomicMeasure(sg, tuple(zip(points, weights)))
        symbol = random_polynomial_symbol(rng, sg.point_dim)
        residual, scale = pairwise_residual(sg, mu.atoms, symbol, grid.elements)
        verdict = decide_covariance(mu, symbol, grid)
        assert verdict.kind == NOT_POINT_MASS
        peak = float(np.abs(residual).max())
        assert verdict.max_residual == pytest.approx(peak / scale, rel=1e-12)
        i, j = (grid.elements.index(el) for el in verdict.witness)
        assert abs(verdict.witness_residual - residual[i, j]) <= 1e-12 * peak


def out_of_place_residual(mu, symbol, grid):
    """(max_residual, witness, witness residual) of ``decide_covariance``'s residual, one new array per step.

    R = mass * quad - outer(left, right) is formed out of place, from the normalized weights and F,
    and read as the engine reads it; the engine forms it in one buffer and must print the same bits.
    """
    fv, b = normalized(symbol_values(symbol, mu.points))
    weights, a = normalized(mu.weight_array)
    P = character_matrix(mu.semigroup, mu.points, grid.exponents)
    left = P.T @ charges(weights, fv)
    right = P.conj().T @ charges(weights, fv, MODE_CONJ_F)
    fp_max = float(np.max(np.abs(fv)[:, None] * np.abs(P), initial=0.0))
    quad = P.T @ (charges(weights, fv, MODE_ABS_F_SQ)[:, None] * P.conj())
    residual = complex(sum(weights.tolist())) * quad - np.outer(left, right)
    abs_residual = np.abs(residual)
    i, j = divmod(int(np.argmax(abs_residual)), len(grid.elements))
    witness, back = complex(residual[i, j]), -2 * (a + b)
    return (
        float(abs_residual.max()) / (float(np.sum(np.abs(weights) ** 2)) * fp_max**2),
        (grid.elements[i], grid.elements[j]),
        complex(math.ldexp(witness.real, back), math.ldexp(witness.imag, back)),
    )


def assert_residual_fields_match(verdict, mu, symbol, grid):
    max_residual, witness, witness_residual = out_of_place_residual(mu, symbol, grid)
    assert verdict.max_residual.hex() == max_residual.hex()
    if verdict.kind == NOT_POINT_MASS:
        assert verdict.witness == witness
        got, want = verdict.witness_residual, witness_residual
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    else:
        assert verdict.kind == POINT_MASS and verdict.witness is None


RESIDUAL_GRIDS = [
    default_grid(Semigroup.nat_add(2), order=6),
    default_grid(Semigroup.nat_mult(3), order=2),
    default_grid(Semigroup.half_line(), order=24),
]


def row_blocks(monkeypatch, grid):
    """Set the residual's blocks to one row, to 7 rows and to the whole grid in turn, yielding after each."""
    n = len(grid.elements)
    for rows in (1, 7, n):
        monkeypatch.setattr(laplace, "_BLOCK_BYTES", rows * 16 * n)
        yield rows


@pytest.mark.parametrize("grid", RESIDUAL_GRIDS, ids=["natadd2", "natmult3", "halfline"])
def test_residual_fields_equal_the_out_of_place_residual(rng, grid, monkeypatch):
    sg = grid.semigroup
    for trial in range(24):
        count = int(rng.integers(1, 6))
        points = [random_character_point(rng, sg) for _ in range(count)]
        weights = [complex(w) * rng.uniform(0.1, 10.0) for w in (random_phase(rng) for _ in range(count))]
        if trial % 4 == 1 and count > 1:
            weights[-1] = -sum(weights[:-1])  # zero mass, up to rounding
        elif trial % 4 == 2 and count > 1:
            weights[-1] = -sum(weights[:-1]) * (1 - 1e-6)  # a small mass above the gate
        mu = AtomicMeasure(sg, tuple(zip(points, weights)))
        symbol = random_polynomial_symbol(rng, sg.point_dim) if trial % 3 else None
        for _ in row_blocks(monkeypatch, grid):
            verdict = decide_covariance(mu, symbol, grid)
            if verdict.kind == DEGENERATE:
                # the mass gate comes before the residual, which then keeps its defaults
                assert (verdict.max_residual, verdict.witness, verdict.witness_residual) == (0.0, None, None)
                assert mass_vanishes(mu, Tolerances()) or verdict.degenerate_case == F_MU_ZERO
            else:
                assert_residual_fields_match(verdict, mu, symbol, grid)


@pytest.mark.parametrize("dim", [1, 2])
def test_random_vector_residual_fields_equal_the_out_of_place_residual(rng, dim, monkeypatch):
    for trial in range(16):
        count = int(rng.integers(1, 7))
        ps = rng.uniform(0.1, 1.0, count)
        ps /= ps.sum()
        xs = [random_character_point(rng, Semigroup.nat_add(dim)) for _ in range(int(rng.integers(1, 4)))]
        outcomes = tuple(
            (float(p), xs[int(rng.integers(len(xs)))], complex(rng.normal(1.0, 1.0), rng.normal()))
            for p in ps
        )
        try:
            rv = DiscreteRandomVector(outcomes)
        except ValueError:  # the normalized probabilities must still sum to 1
            continue
        mu = as_measure(rv)
        grid = default_grid(mu.semigroup, order=2)
        for _ in row_blocks(monkeypatch, grid):
            verdict = decide_constant_vector(rv, max_order=2).covariance
            assert_residual_fields_match(verdict, mu, None, grid)


def test_decide_mass_on_symbol_zero_set():
    # Extra mass where F vanishes breaks the equation: the total-mass factor
    # inflates the left side only.  Brute force: R(e,e) = 7*2 - 2*2 = 10.
    zeta, xi = 0.5 + 0j, -0.7 + 0j
    mu = measure((zeta, 2), (xi, 5))
    f = Symbol.table({(zeta,): 1.0, (xi,): 0.0})
    oracle = slow_covariance_residual(SG1, mu.atoms, [0.0, 1.0], (0,), (0,))
    assert oracle == 10  # atoms are sorted: xi < zeta
    verdict = decide_covariance(mu, f)
    assert verdict.kind == NOT_POINT_MASS
    assert verdict.witness == ((0,), (0,))
    assert verdict.witness_residual == 10
    assert verdict.symbol_vanishes_on_atom


def test_decide_degenerate_gate():
    verdict = decide_covariance(measure((1, 1), (-1, -1)))
    assert verdict.kind == DEGENERATE
    assert verdict.degenerate_case == MASS_ZERO_NEITHER


def test_decide_f_mu_zero():
    verdict = decide_covariance(measure((0.5, 2)), Symbol.constant(0))
    assert verdict.kind == DEGENERATE
    assert verdict.degenerate_case == F_MU_ZERO
    assert verdict.symbol_vanishes_on_atom
    # F(z) = z and weights 1, -a/b at a, b = a + 1e-6: the integral of F cancels, the mass does not,
    # and the residual is small but not zero
    a, b = 0.5, 0.5 + 1e-6
    mu = measure((a, 1), (b, -a / b))
    f = Symbol.polynomial({(1,): 1})
    grid = default_grid(SG1)
    verdict = decide_covariance(mu, f, grid)
    assert (verdict.kind, verdict.degenerate_case) == (DEGENERATE, F_MU_ZERO)
    peak = max(abs(covariance_residual(mu, f, s, t)) for s in grid.elements for t in grid.elements)
    scale = sum(abs(w) ** 2 for w in mu.weights) * max(
        abs(f.at(p) * char_eval(SG1, p, s)) for p in mu.points for s in grid.elements
    ) ** 2
    assert 0 < verdict.max_residual == pytest.approx(peak / scale, rel=1e-9)
    assert not verdict.symbol_vanishes_on_atom


def test_read_point_mass_gates():
    grid = default_grid(SG1)
    with pytest.raises(MassZero, match="total mass is numerically zero; nothing to recover"):
        read_point_mass(measure((1, 1), (-1, -1)), None, grid)
    with pytest.raises(FMuIntegralZero):
        read_point_mass(measure((0.5, 2)), Symbol.constant(0), grid)


@pytest.mark.parametrize(
    "sg,atom",
    [
        (Semigroup.nat_add(2), ((0.3, -0.1j), 2)),
        (Semigroup.nat_mult(2), ((0.5 + 0.1j, 0.25), 1.5 - 0.5j)),
        (Semigroup.half_line(), ((0.8 + 1.1j,), 2)),
    ],
    ids=["natadd", "natmult", "halfline"],
)
def test_read_point_mass_is_the_point_mass_verdict(sg, atom):
    mu = AtomicMeasure(sg, (atom,))
    f = Symbol.polynomial({(0,) * sg.point_dim: 1, (1,) + (0,) * (sg.point_dim - 1): 0.5})
    grid = default_grid(sg)
    verdict = decide_covariance(mu, f, grid)
    read = read_point_mass(mu, f, grid)
    assert (read.kind, read.max_residual, read.symbol_vanishes_on_atom) == (POINT_MASS, 0.0, False)
    assert read.point_resolved
    assert replace(read, max_residual=verdict.max_residual) == verdict


def test_verdict_equivalence_with_total_variation(rng):
    for _ in range(10):
        mu, _, _ = random_point_mass(rng, 1)
        assert (
            decide_covariance(mu).kind
            == decide_covariance(total_variation(mu)).kind
            == POINT_MASS
        )
    for _ in range(10):
        mu = random_multi_atom(rng, 2, 3)
        assert (
            decide_covariance(mu).kind
            == decide_covariance(total_variation(mu)).kind
            == NOT_POINT_MASS
        )


def test_gram_matrix_is_psd_for_nonnegative_measures(rng):
    for _ in range(10):
        mu = random_nonnegative_measure(rng, 1, int(rng.integers(1, 5)))
        grid = default_grid(SG1)
        gram = np.array(
            [
                [laplace_transform(mu, None, s, t) for t in grid.elements]
                for s in grid.elements
            ]
        )
        eigenvalues = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        assert eigenvalues.min() >= -1e-10 * abs(np.trace(gram).real)


def test_nat_mult_decision_and_point():
    sg = Semigroup.nat_mult(2)
    mu = AtomicMeasure(sg, (((0.5 + 0.25j, -0.4j), 1 + 1j),))
    verdict = decide_covariance(mu)
    assert verdict.kind == POINT_MASS
    assert verdict.point_resolved
    assert abs(verdict.point[0] - (0.5 + 0.25j)) < 1e-14
    assert abs(verdict.point[1] - (-0.4j)) < 1e-14


def test_half_line_decision_and_point():
    sg = Semigroup.half_line()
    mu = AtomicMeasure(sg, (((0.8 + 1.1j,), 2.0),))
    verdict = decide_covariance(mu)
    assert verdict.kind == POINT_MASS
    assert verdict.point_resolved
    assert abs(verdict.point[0] - (0.8 + 1.1j)) < 1e-12
    two = AtomicMeasure(sg, (((0.5 + 0j,), 1.0), ((1.5 + 0j,), 1.0)))
    assert decide_covariance(two).kind == NOT_POINT_MASS


def test_half_line_aliased_branch_still_consistent():
    # Im parts differing by 2*pi/0.25 are indistinguishable on the default
    # grid; the resolved point must still reproduce the character table.
    import math

    sg = Semigroup.half_line()
    z = 0.5 + (0.3 + 8 * math.pi) * 1j
    mu = AtomicMeasure(sg, (((z,), 1.0),))
    verdict = decide_covariance(mu)
    assert verdict.kind == POINT_MASS
    assert verdict.point_resolved
    zhat = verdict.point[0]
    for s in default_grid(sg).elements:
        assert abs(verdict.character[s] - cmath.exp(-s * zhat)) < 1e-9


def test_grid_closure_and_identity_insertion():
    grid = EvaluationGrid(SG1, ((2,), (1,)))
    assert grid.elements == ((0,), (1,), (2,))
    assert (4,) in grid.pairs_closure


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(mass=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_tolerances_must_be_positive_and_finite(value):
    for field in ("mass", "residual", "rank"):
        with pytest.raises(ValueError):
            Tolerances(**{field: value})


@pytest.mark.parametrize("value", [1.0, 10.0])
def test_mass_and_rank_tolerances_must_be_below_one(value):
    for field in ("mass", "rank"):
        with pytest.raises(ValueError, match="below 1"):
            Tolerances(**{field: value})
    assert Tolerances(residual=value).residual == value


@pytest.mark.parametrize(
    "atoms,kind,symbol_calls,matrix_calls",
    [
        # decide_covariance on the grid, then recover_point_mass on the closure
        (((0.5, 2.0),), POINT_MASS, 2, 2),
        (((0.5, 1.0), (0.3, 1.0)), NOT_POINT_MASS, 1, 1),
        # degenerate_check classifies the side sums decide_covariance formed
        (((0.5, 1.0), (0.3, -1.0)), DEGENERATE, 1, 1),
    ],
)
def test_decide_covariance_evaluates_the_symbol_once_per_engine_function(
    monkeypatch, atoms, kind, symbol_calls, matrix_calls
):
    counts = {"symbol_values": 0, "character_matrix": 0}

    def counted(name):
        original = getattr(laplace, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(laplace, name, counted(name))
    symbol = Symbol.polynomial({(0,): 1.0, (1,): 0.5})
    verdict = decide_covariance(measure(*atoms), symbol, default_grid(SG1))
    assert verdict.kind == kind
    assert counts == {"symbol_values": symbol_calls, "character_matrix": matrix_calls}


def test_degenerate_check_classifies_the_sums_it_is_given(monkeypatch):
    def forbidden(*args):
        raise AssertionError("degenerate_check evaluates nothing of its own")

    for name in ("symbol_values", "normalized", "character_matrix"):
        monkeypatch.setattr(laplace, name, forbidden)
    zero, side = np.zeros(3, dtype=complex), np.array([0, 0.5, 0.25j])
    tol = Tolerances(residual=0.5)
    # |side| peaks at 0.5, negligible against tol.residual * scale from scale 1 on
    assert degenerate_check(side, side, 1.0, tol) == MASS_ZERO_ANALYTIC
    assert degenerate_check(side, zero, 0.5, tol) == laplace.MASS_ZERO_CONJUGATE
    assert degenerate_check(side, side, 0.5, tol) == MASS_ZERO_NEITHER
    # against a zero scale only an exact 0 vanishes
    assert degenerate_check(zero, side, 0.0, tol) == MASS_ZERO_ANALYTIC


# ------------------------------------------------ the theorem on F's zero set

ZERO_SET_SEMIGROUPS = (
    Semigroup.nat_add(1), Semigroup.nat_add(2), Semigroup.nat_mult(1), Semigroup.nat_mult(2), Semigroup.half_line()
)


def _zero_set_coordinate(rng, sg) -> complex:
    if sg.family == "half_line":
        return complex(rng.uniform(0.0, 1.5), rng.uniform(-1.5, 1.5))
    return 0.9 * math.sqrt(rng.uniform()) * random_phase(rng)


def _zero_set_case(rng, sg, on_zeros: int, off: int, cancel: bool):
    """(mu, F, weights off the zero set): ``on_zeros`` atoms on chosen roots of a poly F, ``off`` atoms where |F| is not small.

    F is a polynomial in the first coordinate with one root more than atoms
    on its zero set.  Without atoms off the zero set, F is z_1 - r and every
    atom has first coordinate r, so F is exactly 0 at each.  With ``cancel``
    the weights on the zero set sum to 0.
    """
    roots = [_zero_set_coordinate(rng, sg) for _ in range(on_zeros + 1)]
    lead = rng.uniform(0.5, 2.0) * random_phase(rng)
    coefficients = lead * np.poly(roots)[::-1]
    if off == 0:
        roots, lead, coefficients = [roots[0]] * on_zeros, 1.0, [-roots[0], 1.0]
    symbol = Symbol.polynomial({(j,) + (0,) * (sg.point_dim - 1): c for j, c in enumerate(coefficients)})

    def point(first):
        return (first,) + tuple(_zero_set_coordinate(rng, sg) for _ in range(sg.point_dim - 1))

    on_points, off_points = [point(r) for r in roots[:on_zeros]], []
    while len(off_points) < off:
        p = point(_zero_set_coordinate(rng, sg))
        if abs(symbol.at(p)) >= 0.2 * abs(lead):
            off_points.append(p)
    on_weights = [rng.uniform(0.3, 2.0) * random_phase(rng) for _ in range(on_zeros)]
    if cancel:
        on_weights[-1] = -sum(on_weights[:-1])
    off_weights = [rng.uniform(0.3, 2.0) * random_phase(rng) for _ in range(off)]
    mu = AtomicMeasure(sg, tuple(zip(on_points + off_points, on_weights + off_weights)))
    return mu, symbol, off_weights


def _assert_zero_set_verdict(mu, symbol, grid, off_weights):
    """decide_covariance against the condition: every w_k F(z_k) = 0, or one atom j off F's zero set with w_j = mu(Gamma)."""
    verdict = decide_covariance(mu, symbol, grid)
    mass = total_mass(mu)
    if not off_weights:
        assert (verdict.kind, verdict.degenerate_case) == (DEGENERATE, F_MU_ZERO)
    elif len(off_weights) == 1 and abs(mass - off_weights[0]) <= 1e-12 * sum(map(abs, mu.weights)):
        assert verdict.kind == POINT_MASS and verdict.symbol_vanishes_on_atom
        assert abs(verdict.mass - off_weights[0]) <= 1e-8 * abs(off_weights[0])
    else:
        assert verdict.kind == NOT_POINT_MASS
    return verdict


def test_the_verdict_follows_the_zero_set_condition(rng):
    # atoms on chosen roots of F in all three families, with complex weights: off-zeta mass on the zero set
    # that cancels is certified, mass that does not (or a second atom off the zero set) is refuted
    seen = Counter()
    for trial in range(200):
        sg = ZERO_SET_SEMIGROUPS[trial % len(ZERO_SET_SEMIGROUPS)]
        grid = default_grid(sg)
        off = trial // len(ZERO_SET_SEMIGROUPS) % 3
        cancel = off == 1 and trial // (3 * len(ZERO_SET_SEMIGROUPS)) % 2 == 1
        # at most 4 atoms and no more than grid elements; every atom shares one root when none is off the zero set
        cap = 1 if off == 0 and sg.point_dim == 1 else min(len(grid.elements), 4) - off
        on_zeros = int(rng.integers(2 if cancel else 1, cap + 1)) if cap >= (2 if cancel else 1) else 0
        if not on_zeros:
            continue
        mu, symbol, off_weights = _zero_set_case(rng, sg, on_zeros, off, cancel)
        # only grids on which P of the merged atoms has rank k: R = 0 then holds exactly when C = 0
        sigma = np.linalg.svd(character_matrix(sg, mu.points, grid.exponents), compute_uv=False)
        if len(mu.weights) != on_zeros + off or sigma[-1] < 1e-3 * sigma[0]:
            continue
        verdict = _assert_zero_set_verdict(mu, symbol, grid, off_weights)
        seen[sg.family, verdict.kind] += 1
    for family in ("nat_add", "nat_mult", "half_line"):
        assert all(seen[family, kind] >= 3 for kind in (POINT_MASS, NOT_POINT_MASS, DEGENERATE)), seen


@pytest.mark.parametrize(
    "atoms,roots,kind",
    [(((0.3, 1), (0.4, -1), (0.5, 1)), (0.3, 0.4), POINT_MASS), (((0.3, 1), (0.5, 1)), (0.3,), NOT_POINT_MASS)],
    ids=["cancels", "does_not_cancel"],
)
def test_atoms_on_the_zero_set_of_f_reproductions(atoms, roots, kind):
    # three atoms are certified: off-zeta mass on the zero set of F that cancels leaves the identity intact
    symbol = Symbol.polynomial({(j,): c for j, c in enumerate(np.poly(roots)[::-1])})
    verdict = _assert_zero_set_verdict(measure(*atoms), symbol, default_grid(SG1), [1])
    if kind == POINT_MASS:
        assert verdict.mass == 1 and abs(verdict.point[0] - 0.5) < 1e-12 and verdict.max_residual < 1e-14
    else:
        assert verdict.kind == kind and abs(verdict.witness_residual - 0.04) < 1e-12
