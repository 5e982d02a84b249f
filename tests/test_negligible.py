"""The one relative-zero rule, |value| <= tol * scale, at each verdict gate and rank count that calls it.

Each gate is probed with numbers whose products round exactly, so the value
sits at tol * scale: there it is negligible, a step past it is not.  Against a
zero scale only an exact 0 is negligible.
"""

import math

import numpy as np
import pytest

from lapcov import (
    AtomicMeasure,
    DiscreteRandomVector,
    KernelCoefficients,
    Semigroup,
    Symbol,
    Tolerances,
    decide_constant_vector,
    decide_covariance,
    default_grid,
    kernel_recover,
    recover_point_mass,
)
from lapcov.errors import ExpectationYZero, FMuIntegralZero, RankDeficientPencil
from lapcov.kernels import EXTREMAL, NOT_EXTREMAL
from lapcov.laplace import (
    MASS_ZERO_ANALYTIC,
    MASS_ZERO_NEITHER,
    NOT_POINT_MASS,
    POINT_MASS,
    mass_vanishes,
)
from lapcov.measures import negligible
from lapcov.toeplitz import _ranks, numerical_rank, prony_pencils, prony_recover

SG1 = Semigroup.nat_add(1)
EPS = 2.0**-20


def above(x: float) -> float:
    return float(np.nextafter(x, math.inf))


def below(x: float) -> float:
    return float(np.nextafter(x, -math.inf))


def measure(*atoms):
    return AtomicMeasure(SG1, tuple(((complex(z),), complex(w)) for z, w in atoms))


# weights 1 + EPS and -(1 - EPS): mass 2 EPS, exactly EPS times the weight scale 2
NEAR_ZERO_MASS = measure((0.5, 1 + EPS), (0.25, -(1 - EPS)))


def test_the_rule_on_scalars_and_arrays():
    assert negligible(0.5, 2.0, 0.25)
    assert not negligible(above(0.5), 2.0, 0.25)
    assert negligible(-0.5, 2.0, 0.25) and negligible(0.3 + 0.4j, 2.0, 0.25)
    assert negligible(0.0, 0.0, 0.25)
    assert not negligible(5e-324, 0.0, 0.25)
    assert not negligible(math.nan, 1.0, 0.25) and not negligible(0.0, math.nan, 0.25)
    got = negligible(np.array([0.5, -0.5, above(0.5), 0.0]), 2.0, 0.25)
    assert got.tolist() == [True, True, False, True]
    # a scale per row broadcasts
    assert negligible(np.array([[1.0, 0.5], [0.0, 5e-324]]), np.array([[2.0], [0.0]]), 0.25).tolist() == [
        [False, True],
        [True, False],
    ]


def test_mass_gate_at_its_threshold():
    assert mass_vanishes(NEAR_ZERO_MASS, Tolerances(mass=EPS))
    assert not mass_vanishes(NEAR_ZERO_MASS, Tolerances(mass=below(EPS)))


def test_the_zero_measure_has_vanishing_mass():
    # a lone zero-weight atom, and +1 and -1 merged at one point: weight scale 0
    for mu in (measure((0.5, 0.0)), measure((0.5, 1.0), (0.5, -1.0))):
        assert mass_vanishes(mu, Tolerances())
        verdict = decide_covariance(mu, None, default_grid(SG1))
        assert (verdict.kind, verdict.degenerate_case) == ("degenerate", MASS_ZERO_ANALYTIC)


def test_f_integral_gate_at_its_threshold():
    # F == 1: the integral is the mass 2 EPS, its scale sum |w F| is 2
    grid = default_grid(SG1)
    with pytest.raises(FMuIntegralZero):
        recover_point_mass(NEAR_ZERO_MASS, None, grid, Tolerances(mass=EPS))
    mass, _ = recover_point_mass(NEAR_ZERO_MASS, None, grid, Tolerances(mass=below(EPS)))
    assert mass == 2 * EPS
    # F vanishing on every atom: zero integral against a zero scale
    with pytest.raises(FMuIntegralZero):
        recover_point_mass(measure((0.5, 1.0)), Symbol.constant(0.0), grid, Tolerances())


def test_residual_gate_at_its_threshold():
    # atoms 1 and 0 of weight 1: max |R| is 1 against the scale sum |w|^2 (max |F rho|)^2 = 2
    mu = measure((1.0, 1.0), (0.0, 1.0))
    grid = default_grid(SG1)
    assert decide_covariance(mu, None, grid, Tolerances(residual=0.5)).kind == POINT_MASS
    verdict = decide_covariance(mu, None, grid, Tolerances(residual=below(0.5)))
    assert (verdict.kind, verdict.max_residual) == (NOT_POINT_MASS, 0.5)


@pytest.mark.parametrize("points", [(1e18,), (1e18, 2e18), (1.0, 0.0)])
def test_tiny_weights_are_judged_like_weights_of_order_one(points):
    # at weights 0.75 * 2**-540, sum |w|^2 would underflow; the residual is judged after an exact
    # power-of-two rescale, so the verdict and max_residual keep the bits of weights 0.75
    grid = default_grid(SG1)
    plain, tiny = (
        decide_covariance(measure(*((z, w) for z in points)), None, grid) for w in (0.75, 0.75 * 2.0**-540)
    )
    assert (tiny.kind, tiny.max_residual, tiny.witness) == (plain.kind, plain.max_residual, plain.witness)
    assert tiny.kind == (POINT_MASS if len(points) == 1 else NOT_POINT_MASS)
    if tiny.kind == NOT_POINT_MASS:
        assert tiny.witness_residual == pytest.approx(plain.witness_residual * 2.0**-1080, rel=1e-6)


def test_symbol_flag_at_its_threshold():
    # |F| at the first atom is EPS times max(1, max |F|) = 1
    mu = measure((0.5, 1.0), (0.25, 1.0))
    for value, flagged in ((EPS, True), (above(EPS), False)):
        symbol = Symbol.table({0.5: value, 0.25: 1.0})
        verdict = decide_covariance(mu, symbol, default_grid(SG1), Tolerances(residual=EPS))
        assert verdict.symbol_vanishes_on_atom is flagged


def test_degenerate_sides_at_their_threshold():
    # atoms 1 and 0.5 of weight +-1: |L(s, e)| = 1 - 2**-s peaks at 15/16 for s = 4, against the scale 2 * 1
    mu = measure((1.0, 1.0), (0.5, -1.0))
    grid = default_grid(SG1)
    for residual, case in ((15 / 32, MASS_ZERO_ANALYTIC), (below(15 / 32), MASS_ZERO_NEITHER)):
        assert decide_covariance(mu, None, grid, Tolerances(residual=residual)).degenerate_case == case
    # the zero measure: every value is an exact 0 against a zero scale
    assert decide_covariance(measure((0.5, 0.0)), None, grid, Tolerances()).degenerate_case == MASS_ZERO_ANALYTIC


def test_expectation_gate_at_its_threshold():
    # E[Y] = EPS against E|Y| = 1
    rv = DiscreteRandomVector(((0.5, 0.0, 1 + EPS), (0.5, 1.0, -(1 - EPS))))
    with pytest.raises(ExpectationYZero):
        decide_constant_vector(rv, tol=Tolerances(mass=EPS))
    assert decide_constant_vector(rv, tol=Tolerances(mass=below(EPS))).kind == "not_constant"
    with pytest.raises(ExpectationYZero):
        decide_constant_vector(DiscreteRandomVector(((0.5, 0.0, 0.0), (0.5, 1.0, 0.0))))


def test_ranks_at_their_threshold():
    sigma = np.array([1.0, EPS, EPS / 2])
    assert int(_ranks(sigma, EPS)) == 1
    assert int(_ranks(sigma, below(EPS))) == 2
    assert numerical_rank(np.diag(sigma), EPS) == 1
    assert numerical_rank(np.zeros((3, 3))) == 0


def naive_rank(profile, tol: float) -> int:
    return sum(1 for value in profile if not abs(value) <= tol * profile[0])


@pytest.mark.parametrize("seed", range(5))
def test_stacked_ranks_equal_a_profile_loop(seed):
    rng = np.random.default_rng(seed)
    for width in (0, 1, 4):
        stack = np.sort(rng.random((6, width)) * 10.0 ** rng.integers(-12, 2, (6, width)), axis=1)[:, ::-1]
        stack[0] = 0.0  # an all-zero profile
        if width > 1:
            stack[1, 1:] = stack[1, 0] * 1e-8  # values exactly at the threshold
        got = _ranks(stack, 1e-8).tolist()
        assert got == [int(_ranks(profile, 1e-8)) for profile in stack]
        assert got == [naive_rank(profile.tolist(), 1e-8) if width else 0 for profile in stack]
        if width > 1:
            assert got[1] == 1


def test_pencil_rank_and_singular_count_at_their_thresholds():
    # the unshifted block is diag(1, small): its singular values are exact
    def table(small):
        return np.array([[1.0, 0.0], [0.0, small], [0.0, 0.0]], dtype=complex)

    assert prony_pencils(table(EPS)[None], EPS)[0].rank == 1
    assert prony_pencils(table(EPS)[None], below(EPS))[0].rank == 2
    # ranked 2 at 1e-14, the block is singular where sigma_2 is negligible at 1e-13
    with pytest.raises(RankDeficientPencil):
        prony_recover(table(1e-13), rel_tol=1e-14)
    assert prony_pencils(table(above(1e-13))[None], 1e-14)[0].error is None
    assert prony_pencils(np.zeros((1, 3, 2), dtype=complex))[0].rank == 0


def test_kernel_coefficient_gate_at_its_threshold():
    # at zeta = 0 the Bergman column is e_0, so the mismatch is |f_1| against the scale |f_0| = 1
    kernel = KernelCoefficients.bergman(4)
    mu = measure((0.0, 1.0))
    for f1, kind in ((EPS, EXTREMAL), (above(EPS), NOT_EXTREMAL)):
        verdict = kernel_recover(kernel, {(0,): 1.0, (1,): f1}, mu, z_grid=((0j,),), residual_tol=EPS**2)
        assert verdict.kind == kind
        assert verdict.reason in (None, "f_coefficient_mismatch")


def test_kernel_mass_gate_at_its_threshold():
    # f = 3 e_0 and mass w: |w - 9| against sqrt(9) |w| meets it at w = 2.25, and |9 - w| <= 9 (9 + w)
    # passes the equation; one ulp of w below 2.25, 9 - w rounds back to 6.75 while 3 w drops by 2**-49
    kernel = KernelCoefficients.bergman(4)
    for w, kind in ((2.25, EXTREMAL), (2.25 - 2.0**-51, NOT_EXTREMAL)):
        verdict = kernel_recover(kernel, {(0,): 3.0}, measure((0.0, w)), z_grid=((0j,),), residual_tol=9.0)
        assert verdict.kind == kind
        assert verdict.reason in (None, "mass_modulus_mismatch")
