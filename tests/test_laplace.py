import cmath
import itertools
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
from lapcov.errors import FMuIntegralZero, MassZero
from lapcov.laplace import (
    DEGENERATE,
    F_MU_ZERO,
    MASS_ZERO_ANALYTIC,
    MASS_ZERO_NEITHER,
    NOT_POINT_MASS,
    POINT_MASS,
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
    assert degenerate_check(mu, None, grid) == MASS_ZERO_NEITHER
    # oracle at s=1: 1*1 + (-1)*(-1) = 2 != 0
    assert slow_laplace(SG1, mu.atoms, [1, 1], (1,), (0,)) == 2


def test_degenerate_symbol_vanishing_on_support():
    # F(z) = z(z - 0.5) vanishes at both atoms; both sides vanish and the
    # analytic case is reported
    mu = measure((0, 1), (0.5, -1))
    f = Symbol.polynomial({(1,): -0.5, (2,): 1})
    grid = default_grid(SG1)
    assert degenerate_check(mu, f, grid) == MASS_ZERO_ANALYTIC


def test_degenerate_affine_symbol():
    mu = measure((1, 1), (-1, -1))
    f = Symbol.polynomial({(0,): 1, (1,): 1})
    # oracle at s=0 (atoms sorted, -1 first): (1-1)*(-1) + (1+1)*1 = 2 != 0
    f_sorted = [f.at(p) for p in mu.points]
    assert slow_laplace(SG1, mu.atoms, f_sorted, (0,), (0,)) == 2
    assert degenerate_check(mu, f, default_grid(SG1)) == MASS_ZERO_NEITHER


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
        # decide_covariance reads F for the vanishing flag, degenerate_check builds its own matrix
        (((0.5, 1.0), (0.3, -1.0)), DEGENERATE, 2, 1),
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
