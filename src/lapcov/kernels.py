"""Extremality of analytic kernels against atomic measures on a small ball.

A kernel K(z, w) = sum a_{m,n} z^m w^n (truncated power series) and a
holomorphic f satisfy |f(z)|^2 = integral of |K(z, conj w)|^2 d mu(w) near 0
exactly when mu is a single point mass c delta_zeta and f matches the kernel
column at conj(zeta) up to a unimodular phase with |lambda|^2 = c.  The
recovery runs the moment route on mu and then compares f's coefficients
against the kernel column.
"""

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import NumericOverflow
from .laplace import POINT_MASS, EvaluationGrid, Tolerances, decide_covariance, default_grid, mass_vanishes
from .measures import AtomicMeasure, negligible, total_mass
from .semigroups import monomial

EXTREMAL = "extremal"
NOT_EXTREMAL = "not_extremal"
INCONCLUSIVE = "inconclusive"
DEGENERATE = "degenerate"

DEFAULT_TRUNCATION = 24
BALL_RADIUS = 0.3


@dataclass(frozen=True)
class KernelCoefficients:
    """Truncated kernel coefficients a[(m, n)] for z^m w^n terms.

    ``z_dim`` and ``w_dim`` are the lengths of the m and n multi-indices;
    indices with |m| or |n| beyond ``truncation`` are rejected.
    """

    z_dim: int
    w_dim: int
    truncation: int
    coefficients: tuple

    @classmethod
    def from_terms(cls, z_dim: int, w_dim: int, truncation: int, terms) -> "KernelCoefficients":
        normalized = []
        for (m, n), a in dict(terms).items():
            m = tuple(int(i) for i in m)
            n = tuple(int(i) for i in n)
            if len(m) != z_dim or len(n) != w_dim:
                raise ValueError("kernel multi-index length mismatch")
            if sum(m) > truncation or sum(n) > truncation:
                raise ValueError("kernel term outside the declared truncation")
            normalized.append((m, n, complex(a)))
        normalized.sort(key=lambda t: (t[0], t[1]))
        return cls(z_dim, w_dim, truncation, tuple(normalized))

    @classmethod
    def bergman(cls, truncation: int = DEFAULT_TRUNCATION) -> "KernelCoefficients":
        """Diagonal disc kernel a_{m,m} = m + 1 (one z and one w variable)."""
        terms = {((m,), (m,)): m + 1 for m in range(truncation + 1)}
        return cls.from_terms(1, 1, truncation, terms)


def kernel_eval(kernel: KernelCoefficients, z, w) -> complex:
    """Truncated kernel value sum a_{m,n} z^m w^n."""
    z = tuple(complex(v) for v in z)
    w = tuple(complex(v) for v in w)
    return sum((a * monomial(z, m) * monomial(w, n) for m, n, a in kernel.coefficients), 0j)


def function_eval(coefficients: dict, z) -> complex:
    """Value of a truncated power series sum b_m z^m."""
    z = tuple(complex(v) for v in z)
    return sum((complex(b) * monomial(z, m) for m, b in coefficients.items()), 0j)


def kernel_equation_residual(kernel: KernelCoefficients, f_coefficients: dict, mu: AtomicMeasure, z) -> tuple:
    """| |f(z)|^2 - sum_k w_k |K(z, conj(atom_k))|^2 | at one probe point z, and its scale |f(z)|^2 + sum_k |w_k| |K|^2.

    A term that overflows the float range raises NumericOverflow.
    """
    try:
        lhs = abs(function_eval(f_coefficients, z)) ** 2
        rhs = 0j
        scale = lhs
        for point, weight in mu.atoms:
            conj_point = tuple(v.conjugate() for v in point)
            term = abs(kernel_eval(kernel, z, conj_point)) ** 2
            rhs += weight * term
            scale += abs(weight) * term
        residual = abs(lhs - rhs)
    except NumericOverflow:
        raise
    except OverflowError as exc:
        raise NumericOverflow(f"a kernel equation term overflows: {exc}") from None
    if not (math.isfinite(residual) and math.isfinite(scale)):
        raise NumericOverflow("a kernel equation term overflows the float range")
    return residual, scale


def truncation_tail_bound(kernel: KernelCoefficients, z_norm: float, w_norm: float) -> float:
    """Geometric majorant for the dropped tail of the truncated kernel.

    Valid when q = z_norm * w_norm < 1 and the coefficient magnitudes beyond
    the truncation N stay below max|a| times the polynomial profile (k+1)^2,
    which covers the diagonal disc kernel with room to spare.  The series
    sum_{k>N} max|a| (k+1)^2 q^k is summed in closed form, with M = N + 2:
    max|a| q^(N+1) [M^2/(1-q) + 2Mq/(1-q)^2 + q(1+q)/(1-q)^3].  Returns inf
    for q >= 1.  Where q^(N+1) or its product with max|a| leaves the normal
    float range, or the bracket overflows, the bound is formed from base-2
    logarithms and rounded up, so it reads 0 only when the true bound is
    below the float range; a truncation N need not convert to a float.
    """
    q = float(z_norm) * float(w_norm)
    if q >= 1.0:
        return math.inf
    peak = max((abs(a) for _, _, a in kernel.coefficients), default=0.0)
    m = kernel.truncation + 2
    if peak == 0.0 or q == 0.0 or m.bit_length() > 511:
        # the tail of a zero max|a| or q is 0; past 2**511, q <= 1 - 2**-53 puts q^(M-1) below
        # exp(-2**457), and the bracket is below 3 M^2 / (1-q)^3 <= 3 M^2 2**159: the product underflows
        return 0.0
    power = q ** (m - 1)
    bracket = m * m / (1 - q) + 2 * m * q / (1 - q) ** 2 + q * (1 + q) / (1 - q) ** 3
    if min(power, peak * power) >= sys.float_info.min and bracket < math.inf:
        return peak * power * bracket
    # the bracket is M^2/(1-q) (1 + r), with r = 2q/(M(1-q)) + q(1+q)/(M(1-q))^2 finite
    r = 2 * q / (m * (1 - q)) + q * (1 + q) / (m * (1 - q)) ** 2
    exponent = math.log2(peak) + (m - 1) * math.log2(q) + 2 * math.log2(m) - math.log2(1 - q) + math.log2(1 + r)
    # where 2**exponent is in range, every term is below ~3,300 in size and good to ~2**-50 of it,
    # so the sum is off by less than 2**-36 and the factor 1 + 2**-30 rounds the bound up
    return 2.0**exponent * (1 + 2.0**-30) if exponent < 1024 else math.inf


def default_z_grid(dim: int = 1) -> tuple:
    """Deterministic probe points filling the ball |z| <= BALL_RADIUS.

    One dimension: the origin plus three circles of eight points.  Higher
    dimensions reuse the pattern along each axis and the main diagonal.
    """
    circle = [cmath.exp(2j * math.pi * k / 8) for k in range(8)]
    pattern = [0j] + [BALL_RADIUS * (r / 3.0) * u for r in (1, 2, 3) for u in circle]
    if dim == 1:
        return tuple((z,) for z in pattern)
    points = []
    directions = [tuple(1.0 if i == axis else 0.0 for i in range(dim)) for axis in range(dim)]
    directions.append(tuple(1.0 / math.sqrt(dim) for _ in range(dim)))
    for direction in directions:
        for z in pattern:
            points.append(tuple(z * d for d in direction))
    seen, unique = set(), []
    for p in points:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return tuple(unique)


@dataclass(frozen=True)
class KernelVerdict:
    kind: str
    mass: complex = None
    point: tuple = None
    phase: float = None          # argument of the f / kernel-column ratio
    max_residual: float = 0.0
    witness_z: tuple = None
    reason: str = None


def kernel_recover(
    kernel: KernelCoefficients,
    f_coefficients: dict,
    mu: AtomicMeasure,
    z_grid=None,
    residual_tol: float = 1e-8,
    tol: Tolerances = None,
    grid: EvaluationGrid = None,
) -> KernelVerdict:
    """Decide extremality and recover the certifying (c, zeta, phase).

    The verdict is ``extremal`` when the squared-modulus equation holds on
    ``z_grid`` (the largest residual is negligible at ``residual_tol``
    against the largest scale), the moment route on ``grid`` (or the default grid) certifies mu
    as a point mass c delta_zeta, and f's coefficients match lambda times the
    kernel column at conj(zeta) with |lambda|^2 = c; the phase of lambda is
    reported since the equation determines f only up to a unimodular factor,
    and c must match |lambda|^2 relative to |c|.  No gate depends on an
    overall scale of mu or f.
    ``inconclusive`` is returned instead of guessing when the kernel column
    vanishes on every index needed for the comparison.
    """
    tol = tol or Tolerances()
    f_coefficients = {tuple(int(i) for i in m): complex(b) for m, b in f_coefficients.items()}
    if mass_vanishes(mu, tol):
        return KernelVerdict(kind=DEGENERATE, reason="measure_mass_zero")

    if z_grid is None:
        z_grid = default_z_grid(kernel.z_dim)
    max_residual = scale = 0.0
    witness = None
    for z in z_grid:
        value, size = kernel_equation_residual(kernel, f_coefficients, mu, z)
        scale = max(scale, size)
        if value > max_residual:
            max_residual = value
            witness = tuple(complex(v) for v in z)
    if not negligible(max_residual, scale, residual_tol):
        return KernelVerdict(kind=NOT_EXTREMAL, max_residual=max_residual, witness_z=witness)

    verdict = decide_covariance(mu, None, grid if grid is not None else default_grid(mu.semigroup), tol)
    if verdict.kind != POINT_MASS:
        return KernelVerdict(
            kind=NOT_EXTREMAL, max_residual=max_residual, reason="moment_route_not_point_mass"
        )
    if not verdict.point_resolved:
        return KernelVerdict(
            kind=INCONCLUSIVE, max_residual=max_residual, reason="point_unresolved"
        )
    zeta = verdict.point
    conj_zeta = tuple(v.conjugate() for v in zeta)

    column = {}
    for m, n, a in kernel.coefficients:
        column[m] = column.get(m, 0j) + a * monomial(conj_zeta, n)
    indices = sorted(set(column) | set(f_coefficients))
    column_max = max((abs(column.get(m, 0j)) for m in indices), default=0.0)
    if column_max == 0.0:
        return KernelVerdict(
            kind=INCONCLUSIVE, max_residual=max_residual, reason="kernel_column_vanishes"
        )

    anchor = max(indices, key=lambda m: abs(column.get(m, 0j)))
    ratio = f_coefficients.get(anchor, 0j) / column[anchor]
    coeff_tol = math.sqrt(residual_tol)
    mismatch = max(
        abs(f_coefficients.get(m, 0j) - ratio * column.get(m, 0j)) for m in indices
    )
    coeff_scale = max(
        column_max * abs(ratio), max((abs(b) for b in f_coefficients.values()), default=0.0)
    )
    if not negligible(mismatch, coeff_scale, coeff_tol):
        return KernelVerdict(
            kind=NOT_EXTREMAL, max_residual=max_residual, reason="f_coefficient_mismatch"
        )
    mass = total_mass(mu)
    if not negligible(mass - abs(ratio) ** 2, abs(mass), coeff_tol):
        return KernelVerdict(
            kind=NOT_EXTREMAL, max_residual=max_residual, reason="mass_modulus_mismatch"
        )
    return KernelVerdict(
        kind=EXTREMAL,
        mass=mass,
        point=zeta,
        phase=cmath.phase(ratio),
        max_residual=max_residual,
    )
