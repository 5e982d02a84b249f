import cmath
import math
from fractions import Fraction

import pytest

from lapcov import (
    AtomicMeasure,
    KernelCoefficients,
    Semigroup,
    default_z_grid,
    kernel_equation_residual,
    kernel_eval,
    kernel_recover,
)
from lapcov.kernels import DEGENERATE, EXTREMAL, NOT_EXTREMAL


SG1 = Semigroup.nat_add(1)


def point_mass(zeta, weight):
    return AtomicMeasure(SG1, (((complex(zeta),), complex(weight)),))


def bergman_column(zeta_bar, truncation=24, scale=1.0):
    """f-coefficients of scale * K(., zeta_bar) for the diagonal disc kernel."""
    return {(m,): scale * (m + 1) * complex(zeta_bar) ** m for m in range(truncation + 1)}


def test_kernel_eval_constant_term():
    kernel = KernelCoefficients.from_terms(1, 1, 2, {((0,), (0,)): 3.5, ((1,), (1,)): 2.0})
    assert kernel_eval(kernel, (0,), (0,)) == 3.5


def test_kernel_eval_geometric_series():
    kernel = KernelCoefficients.bergman(50)
    value = kernel_eval(kernel, (0.2,), (0.3,))
    # oracle: sum (m+1) q^m = 1 / (1-q)^2 at q = 0.06
    assert abs(value - 1 / (1 - 0.06) ** 2) < 1e-12


def test_kernel_eval_z_zero_slice():
    kernel = KernelCoefficients.from_terms(
        1, 1, 3, {((0,), (0,)): 1.0, ((0,), (2,)): -2.0, ((1,), (1,)): 5.0}
    )
    w = 0.4 + 0.1j
    assert kernel_eval(kernel, (0,), (w,)) == 1.0 - 2.0 * w**2


def test_equation_residual_central_atom():
    kernel = KernelCoefficients.bergman(12)
    f = bergman_column(0.0, truncation=12)
    mu = point_mass(0.0, 1.0)
    for z in default_z_grid():
        assert kernel_equation_residual(kernel, f, mu, z)[0] < 1e-15


def test_equation_residual_matched_point_mass():
    kernel = KernelCoefficients.bergman(24)
    c, zeta = 2.0, 0.1
    f = bergman_column(zeta, scale=math.sqrt(c))
    mu = point_mass(zeta, c)
    for z in default_z_grid():
        assert kernel_equation_residual(kernel, f, mu, z)[0] <= 1e-10


def test_equation_residual_two_atoms():
    kernel = KernelCoefficients.bergman(24)
    f = bergman_column(0.0)
    mu = AtomicMeasure(SG1, (((0.2 + 0j,), 0.5), ((-0.2 + 0j,), 0.5)))
    worst = max(kernel_equation_residual(kernel, f, mu, z)[0] for z in default_z_grid())
    assert worst > 1e-4


def test_equation_residual_quadratic_scaling():
    kernel = KernelCoefficients.bergman(16)
    zeta = 0.15
    f = bergman_column(zeta, truncation=16)
    mu = point_mass(0.05, 1.0)
    z = (0.25 + 0.1j,)
    base = kernel_equation_residual(kernel, f, mu, z)[0]
    f2 = {m: 2.0 * b for m, b in f.items()}
    mu2 = point_mass(0.05, 4.0)
    assert abs(kernel_equation_residual(kernel, f2, mu2, z)[0] - 4.0 * base) <= 1e-10 * max(base, 1.0)
    # the scale the residual is judged against is quadratic too, and a power of two scales it exactly
    assert kernel_equation_residual(kernel, f2, mu2, z)[1] == 4.0 * kernel_equation_residual(kernel, f, mu, z)[1]


def test_recover_extremal_example():
    kernel = KernelCoefficients.bergman(24)
    c, zeta = 2.0, 0.1
    f = bergman_column(zeta, scale=math.sqrt(c))
    verdict = kernel_recover(kernel, f, point_mass(zeta, c))
    assert verdict.kind == EXTREMAL
    assert abs(verdict.mass - c) < 1e-12
    assert abs(verdict.point[0] - zeta) < 1e-12
    assert abs(verdict.phase) < 1e-8


def test_recover_reports_phase():
    kernel = KernelCoefficients.bergman(24)
    c, zeta, theta = 1.5, 0.1 + 0.05j, 0.8
    scale = math.sqrt(c) * cmath.exp(1j * theta)
    f = {(m,): scale * (m + 1) * complex(zeta).conjugate() ** m for m in range(25)}
    verdict = kernel_recover(kernel, f, point_mass(zeta, c))
    assert verdict.kind == EXTREMAL
    assert abs(verdict.phase - theta) < 1e-8


def test_recover_two_atoms_not_extremal():
    kernel = KernelCoefficients.bergman(24)
    mu = AtomicMeasure(SG1, (((0.15 + 0j,), 0.5), ((-0.15 + 0j,), 0.5)))
    verdict = kernel_recover(kernel, bergman_column(0.0), mu)
    assert verdict.kind == NOT_EXTREMAL
    assert verdict.witness_z is not None


def test_recover_zero_function_not_extremal():
    kernel = KernelCoefficients.bergman(24)
    verdict = kernel_recover(kernel, {(0,): 0.0}, point_mass(0.1, 1.0))
    assert verdict.kind == NOT_EXTREMAL


def test_recover_degenerate_mass():
    kernel = KernelCoefficients.bergman(8)
    mu = AtomicMeasure(SG1, (((0.1 + 0j,), 1.0), ((-0.1 + 0j,), -1.0)))
    verdict = kernel_recover(kernel, bergman_column(0.0, truncation=8), mu)
    assert verdict.kind == DEGENERATE


def test_recover_mismatched_coefficients():
    kernel = KernelCoefficients.bergman(24)
    c, zeta = 1.0, 0.1
    f = bergman_column(zeta, scale=math.sqrt(c))
    f[(3,)] += 0.5  # break one coefficient; the squared equation must notice
    verdict = kernel_recover(kernel, f, point_mass(zeta, c))
    assert verdict.kind == NOT_EXTREMAL


def test_kernel_truncation_is_enforced():
    with pytest.raises(ValueError):
        KernelCoefficients.from_terms(1, 1, 2, {((3,), (0,)): 1.0})


def test_truncation_tail_bound():
    from lapcov import truncation_tail_bound

    kernel = KernelCoefficients.bergman(24)
    bound = truncation_tail_bound(kernel, 0.3, 0.2)
    # oracle: the true diagonal tail sum_{m>24} (m+1) q^m at q = 0.06
    q, tail = 0.06, 0.0
    for m in range(25, 200):
        tail += (m + 1) * q**m
    assert 0 < tail <= bound
    assert bound < 1e-20
    assert truncation_tail_bound(kernel, 2.0, 0.6) == float("inf")


@pytest.mark.parametrize("q", [0.06, 0.25, 0.9, 0.999])
@pytest.mark.parametrize("scale", [1.0, 1e-40, 1e40])
def test_truncation_tail_bound_majorizes_the_series(scale, q):
    from lapcov import truncation_tail_bound

    # the Bergman profile a_{m,m} = m + 1 times scale up to 24, declared up to N;
    # the factor allows for rounding in the closed form
    for n in (24, 10**20, 10**200):
        kernel = KernelCoefficients.from_terms(1, 1, n, {((m,), (m,)): scale * (m + 1) for m in range(25)})
        peak = scale * 25
        # (k + 1) twice, not squared: past 1e154 the square no longer converts to a float
        series = math.fsum(peak * q**k * (k + 1) * (k + 1) for k in range(n + 1, n + 20_001))
        assert truncation_tail_bound(kernel, q, 1.0) >= (1 - 1e-14) * series


def exact_closed_form(peak, q, truncation):
    """The closed form of ``truncation_tail_bound`` in exact rational arithmetic."""
    q, m = Fraction(q), truncation + 2
    return Fraction(peak) * q ** (m - 1) * (m * m / (1 - q) + 2 * m * q / (1 - q) ** 2 + q * (1 + q) / (1 - q) ** 3)


@pytest.mark.parametrize(
    "peak,q,truncation",
    [
        (1e300, 0.25, 600),  # q^(N+1) underflows to 0 while the bound is near 1e-56
        (1.0, 0.25, 538),  # the bound is subnormal
        (1.0, 0.5, 1070),
        (1.0, 0.5, 1100),  # the bound is below the float range
        (1e-300, 0.999, 300),  # max|a| q^(N+1) is subnormal, the bound is not
        (1.0, 0.06, 24),
        (1e40, 0.999, 10**4),
    ],
)
def test_truncation_tail_bound_rounds_the_closed_form_up(peak, q, truncation):
    from lapcov import truncation_tail_bound

    kernel = KernelCoefficients.from_terms(1, 1, truncation, {((0,), (0,)): peak})
    bound, exact = truncation_tail_bound(kernel, q, 1.0), exact_closed_form(peak, q, truncation)
    if exact < Fraction(1, 2**1075):
        assert bound == 0.0
    else:
        # a few ulps below the exact value at most (the plain float expression), 2**-29 above it,
        # and in the subnormal range within half a subnormal step more
        tiny = Fraction(1, 2**1075)
        assert exact * (1 - Fraction(1, 2**50)) - tiny <= bound <= exact * (1 + Fraction(1, 2**29)) + tiny


@pytest.mark.parametrize("truncation", [2**509, 2**511, 10**200], ids=["2^509", "2^511", "1e200"])
@pytest.mark.parametrize("q", [0.25, 0.999999, 1 - 2**-53])
def test_truncation_tail_bound_of_a_huge_truncation_is_zero(q, truncation):
    from lapcov import truncation_tail_bound

    # q^(N+1) is far below the float range, however large the bracket
    kernel = KernelCoefficients.from_terms(1, 1, truncation, {((0,), (0,)): 1e300})
    assert truncation_tail_bound(kernel, q, 1.0) == 0.0
