"""Generalized Laplace transforms, the covariance residual, and the decision engine.

For an atomic measure mu with atoms (z_k, w_k) and a symbol F, the transform is

    L[mu, F](s, t) = sum_k  w_k F(z_k) rho_{z_k}(s) conj(rho_{z_k}(t))

and the covariance residual is

    R(s, t) = mass * L[mu, |F|^2](s, t) - L[mu, F](s, e) * L[mu, conj F](e, t).

``decide_covariance`` probes R on a finite grid and classifies the measure as
a certified point mass (relative to the grid), a certified non-point-mass
(with an explicit witness pair), or a degenerate case.
"""

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FMuIntegralZero, MissingGridValue, NumericOverflow
from .measures import (
    MODE_ABS_F_SQ,
    MODE_CONJ_F,
    MODE_F,
    AtomicMeasure,
    Symbol,
    charges,
    symbol_values,
    total_mass,
    weight_scale,
)
from .semigroups import (
    NAT_ADD,
    NAT_MULT,
    Semigroup,
    character_matrix,
    closure_table,
    complex_product,
    first_primes,
    identity,
    validate_element,
)

POINT_MASS = "point_mass"
NOT_POINT_MASS = "not_point_mass"
DEGENERATE = "degenerate"

# degenerate sub-cases: total mass ~ 0 and ...
MASS_ZERO_ANALYTIC = "mass_zero_analytic_vanishes"      # L[mu,F](s,e) == 0 for all s
MASS_ZERO_CONJUGATE = "mass_zero_conjugate_vanishes"    # L[mu,conj F](e,s) == 0 for all s
MASS_ZERO_NEITHER = "mass_zero_neither_vanishes"
# nonzero mass but the integral of F d(mu) vanishes: recovery undefined
F_MU_ZERO = "f_mu_integral_zero"

# absolute consistency threshold when matching a half-line character exponent
_HALF_LINE_POINT_TOL = 1e-6


@dataclass(frozen=True)
class Tolerances:
    """Decision thresholds.

    ``mass`` is relative to the total variation, ``residual`` to the quadratic
    residual scale, ``rank`` to the largest singular value.
    """

    mass: float = 1e-10
    residual: float = 1e-8
    rank: float = 1e-8

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.mass, self.residual, self.rank)):
            raise ValueError("tolerances must be positive and finite")


def mass_vanishes(mu: AtomicMeasure, tol: Tolerances) -> bool:
    """Whether the hypothesis mu(Gamma) != 0 fails numerically: |mu(Gamma)| < tol.mass * sum_k |w_k|."""
    return abs(total_mass(mu)) < tol.mass * weight_scale(mu)


@dataclass(frozen=True)
class EvaluationGrid:
    """A finite probe set of semigroup elements.

    Elements are deduplicated and sorted, the identity is always included,
    and ``pairs_closure`` additionally contains every pairwise product, so
    recovered character tables can be checked for multiplicativity.
    ``products[i, j]`` is the index in ``pairs_closure`` of
    ``elements[i] * elements[j]``.  The identity sorts first, so
    ``products[0]`` indexes the elements themselves.
    """

    semigroup: Semigroup
    elements: tuple
    order: int = None
    pairs_closure: tuple = field(default=(), compare=False)
    products: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        base = {validate_element(self.semigroup, el) for el in self.elements}
        base.add(identity(self.semigroup))
        elements = tuple(sorted(base))
        closure, products = closure_table(self.semigroup, elements)
        products.setflags(write=False)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "pairs_closure", closure)
        object.__setattr__(self, "products", products)


def default_grid(semigroup: Semigroup, order: int = None) -> EvaluationGrid:
    """The standard probe grid for each semigroup family.

    nat_add: all multi-indices with components <= order (4 for d <= 2,
    2 for d == 3, 1 beyond).  nat_mult: integers with prime exponents
    <= order (default 2).  half_line: 0, 0.25, ..., 0.25 * order (default 8).
    """
    if semigroup.family == NAT_ADD:
        if order is None:
            order = 4 if semigroup.dim <= 2 else (2 if semigroup.dim == 3 else 1)
        elements = tuple(itertools.product(range(order + 1), repeat=semigroup.dim))
    elif semigroup.family == NAT_MULT:
        if order is None:
            order = 2
        primes = first_primes(semigroup.dim)
        elements = []
        for exponents in itertools.product(range(order + 1), repeat=semigroup.dim):
            n = 1
            for p, e in zip(primes, exponents):
                n *= p**e
            elements.append(n)
        elements = tuple(elements)
    else:
        if order is None:
            order = 8
        elements = tuple(0.25 * k for k in range(order + 1))
    return EvaluationGrid(semigroup, elements, order=order)


@dataclass(frozen=True)
class CovarianceVerdict:
    """Outcome of the covariance decision.

    ``character`` maps every element of the grid closure to the recovered
    candidate character value (JSON name: gamma); ``point`` is its location
    in coordinates (JSON name: zeta) when it could be resolved; ``mass`` is
    the Dirac constant (JSON name: c).  ``max_residual`` is normalized by the
    quadratic residual scale.  Point-mass verdicts are certified only
    relative to the probe grid; non-point-mass verdicts carry an explicit
    witness pair.
    """

    kind: str
    mass: complex = None
    character: dict = None
    point: tuple = None
    point_resolved: bool = False
    character_defect: float = None
    witness: tuple = None
    witness_residual: complex = None
    max_residual: float = 0.0
    degenerate_case: str = None
    symbol_vanishes_on_atom: bool = False


def transform_block(mu: AtomicMeasure, symbol, rows, cols, mode: str = MODE_F) -> np.ndarray:
    """L[mu, F](s, t) for s in ``rows`` and t in ``cols``, shape (len(rows), len(cols)).

    Atom k contributes (w_k F(z_k) rho_{z_k}(s)) conj(rho_{z_k}(t)), and the
    contributions are added in atom order, so an entry does not depend on the
    block it is computed in.  ``symbol=None`` means F == 1; ``mode`` picks F,
    conj F or |F|^2.
    """
    sg = mu.semigroup
    rows = [validate_element(sg, s) for s in rows]
    cols = [validate_element(sg, t) for t in cols]
    wf = charges(mu, symbol_values(symbol, mu.points), mode)
    ps = character_matrix(sg, mu.points, rows)
    pt = ps if cols == rows else character_matrix(sg, mu.points, cols)
    left_re, left_im = complex_product(wf.real[:, None], wf.imag[:, None], ps.real, ps.imag)
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for k in range(len(wf)):
        re, im = complex_product(left_re[k][:, None], left_im[k][:, None], pt.real[k], -pt.imag[k])
        out.real += re
        out.imag += im
    return out


def laplace_transform(mu: AtomicMeasure, symbol, s, t, mode: str = MODE_F) -> complex:
    """L[mu, F](s, t); ``symbol=None`` means F == 1, ``mode`` picks F, conj F or |F|^2."""
    return complex(transform_block(mu, symbol, (s,), (t,), mode)[0, 0])


def covariance_residual(mu: AtomicMeasure, symbol, s, t) -> complex:
    """R(s, t) = mass * L[|F|^2](s,t) - L[F](s,e) * L[conj F](e,t)."""
    e = identity(mu.semigroup)
    mass = total_mass(mu)
    quad = laplace_transform(mu, symbol, s, t, mode=MODE_ABS_F_SQ)
    left = laplace_transform(mu, symbol, s, e, mode=MODE_F)
    right = laplace_transform(mu, symbol, e, t, mode=MODE_CONJ_F)
    return mass * quad - left * right


def degenerate_check(mu: AtomicMeasure, symbol, grid: EvaluationGrid, tol: Tolerances = None) -> str:
    """Classify a measure of (numerically) zero total mass.

    Reports whether the analytic side L[mu,F](s,e) vanishes for every grid s,
    or the conjugate side L[mu,conj F](e,s) does, or neither.  When both
    vanish the analytic case is reported.
    """
    tol = tol or Tolerances()
    fv = symbol_values(symbol, mu.points)
    P = character_matrix(mu.semigroup, mu.points, grid.elements)
    analytic = P.T @ charges(mu, fv)
    conjugate = P.conj().T @ charges(mu, fv, MODE_CONJ_F)
    fp_max = float(np.max(np.abs(fv)[:, None] * np.abs(P), initial=0.0))
    threshold = tol.residual * weight_scale(mu) * fp_max
    if np.all(np.abs(analytic) <= threshold):
        return MASS_ZERO_ANALYTIC
    if np.all(np.abs(conjugate) <= threshold):
        return MASS_ZERO_CONJUGATE
    return MASS_ZERO_NEITHER


def recover_point_mass(mu: AtomicMeasure, symbol, grid: EvaluationGrid, tol: Tolerances = None):
    """Dirac constant and candidate character table from transform ratios.

    Returns ``(mass, table)`` with mass = mu(support) and
    table[s] = L[mu,F](s,e) / L[mu,F](e,e) for every s in the grid closure.
    Raises FMuIntegralZero when the denominator is below tolerance.
    """
    tol = tol or Tolerances()
    closure = grid.pairs_closure
    wf = charges(mu, symbol_values(symbol, mu.points))
    numerators = character_matrix(mu.semigroup, mu.points, closure).T @ wf
    e_index = closure.index(identity(mu.semigroup))
    denominator = complex(numerators[e_index])
    fmu_scale = float(np.sum(np.abs(wf)))
    if fmu_scale == 0.0 or abs(denominator) < tol.mass * fmu_scale:
        raise FMuIntegralZero("the integral of F against mu is numerically zero")
    table = {el: complex(numerators[i] / denominator) for i, el in enumerate(closure)}
    table[closure[e_index]] = 1 + 0j  # the ratio at the identity is 1 by definition
    return total_mass(mu), table


def multiplicativity_defect(table: dict, grid: EvaluationGrid) -> float:
    """max over grid pairs of |table[s*t] - table[s]*table[t]|.

    Computed in real arithmetic in the order Python's complex operations use,
    so the result matches a scalar loop bit for bit.
    """
    try:
        values = np.array([complex(table[el]) for el in grid.pairs_closure])
    except KeyError as missing:
        raise MissingGridValue(f"character table lacks element {missing}") from None
    re, im = values.real, values.imag
    at = grid.products[0]
    product_re, product_im = complex_product(re[at][:, None], im[at][:, None], re[at], im[at])
    gaps = np.hypot(re[grid.products] - product_re, im[grid.products] - product_im)
    # fmax skips NaN gaps, as max() over a running value does
    return float(np.fmax.reduce(gaps, axis=None, initial=0.0))


def factorization_residual(f, s, t) -> complex:
    """f(e,e) f(s,t) - f(s,e) f(e,t) for a pair function f."""
    e = identity(f.semigroup)
    return f(e, e) * f(s, t) - f(s, e) * f(e, t)


def resolve_point(grid: EvaluationGrid, table: dict, semigroup: Semigroup):
    """Locate the recovered character in coordinates.

    nat_add reads coordinate values at the unit multi-indices, nat_mult at
    the retained primes.  half_line inverts one exponential and checks the
    chosen logarithm branch for consistency across the whole grid; returns
    ``(None, False)`` when no branch is consistent.
    """
    if semigroup.family == NAT_ADD:
        coords = []
        for i in range(semigroup.dim):
            unit = tuple(1 if j == i else 0 for j in range(semigroup.dim))
            if unit not in table:
                return None, False
            coords.append(table[unit])
        return tuple(coords), True
    if semigroup.family == NAT_MULT:
        coords = []
        for p in first_primes(semigroup.dim):
            if p not in table:
                return None, False
            coords.append(table[p])
        return tuple(coords), True
    nonzero = [s for s in grid.elements if s > 0]
    if not nonzero:
        return None, False
    s0 = min(nonzero)
    base = table[s0]
    if abs(base) < 1e-300:
        return None, False
    principal = -cmath.log(base) / s0
    # equally spaced grids cannot distinguish branches differing by 2*pi*k/s0,
    # so candidates are tried nearest-to-principal first
    for k in sorted(range(-8, 9), key=abs):
        z = principal + (2 * math.pi * k / s0) * 1j
        if z.real < -1e-9:
            continue
        if all(abs(table[s] - cmath.exp(-s * z)) < _HALF_LINE_POINT_TOL for s in grid.elements):
            return (z,), True
    return None, False


def decide_covariance(
    mu: AtomicMeasure,
    symbol: Symbol = None,
    grid: EvaluationGrid = None,
    tol: Tolerances = None,
) -> CovarianceVerdict:
    """Decide whether the covariance equation holds on the grid.

    The residual matrix over grid x grid is compared against
    ``tol.residual * scale`` with the scale-free normalization
    scale = sum_k |w_k|^2 * (max_{k,s} |F(z_k) rho_{z_k}(s)|)^2, which matches
    the residual's quadratic scaling in mu.  Atoms where F numerically
    vanishes are flagged: for such measures the equation constrains only
    F-weighted data, not mu itself.
    """
    sg = mu.semigroup
    grid = grid or default_grid(sg)
    tol = tol or Tolerances()
    if grid.semigroup != sg:
        raise ValueError("grid and measure use different semigroups")

    fv = symbol_values(symbol, mu.points)
    abs_f = np.abs(fv)
    flag = bool(np.any(abs_f < tol.residual * max(1.0, float(abs_f.max())))) if len(abs_f) else False

    if mass_vanishes(mu, tol):
        case = degenerate_check(mu, symbol, grid, tol)
        return CovarianceVerdict(
            kind=DEGENERATE, degenerate_case=case, symbol_vanishes_on_atom=flag
        )

    w = mu.weight_array
    P = character_matrix(sg, mu.points, grid.elements)
    # finite charges and characters can still overflow in their products
    with np.errstate(over="ignore", invalid="ignore"):
        left = P.T @ charges(mu, fv)
        right = P.conj().T @ charges(mu, fv, MODE_CONJ_F)
        quad = P.T @ (charges(mu, fv, MODE_ABS_F_SQ)[:, None] * P.conj())
        residual = total_mass(mu) * quad - np.outer(left, right)
        abs_residual = np.abs(residual)
        fp_max = float(np.max(abs_f[:, None] * np.abs(P), initial=0.0))
        weight_square = float(np.sum(np.abs(w) ** 2))
    max_raw = float(abs_residual.max())
    try:
        scale = weight_square * fp_max**2
    except OverflowError:
        scale = math.inf
    if not (math.isfinite(max_raw) and math.isfinite(scale)):
        raise NumericOverflow("the covariance residual or its scale overflows the float range")
    max_normalized = max_raw / scale if scale > 0 else 0.0

    if scale == 0.0 or max_raw <= tol.residual * scale:
        try:
            mass_out, table = recover_point_mass(mu, symbol, grid, tol)
        except FMuIntegralZero:
            return CovarianceVerdict(
                kind=DEGENERATE,
                degenerate_case=F_MU_ZERO,
                max_residual=max_normalized,
                symbol_vanishes_on_atom=flag,
            )
        point, resolved = resolve_point(grid, table, sg)
        defect = multiplicativity_defect(table, grid)
        return CovarianceVerdict(
            kind=POINT_MASS,
            mass=mass_out,
            character=table,
            point=point,
            point_resolved=resolved,
            character_defect=defect,
            max_residual=max_normalized,
            symbol_vanishes_on_atom=flag,
        )

    flat_index = int(np.argmax(abs_residual))
    i, j = divmod(flat_index, len(grid.elements))
    return CovarianceVerdict(
        kind=NOT_POINT_MASS,
        witness=(grid.elements[i], grid.elements[j]),
        witness_residual=complex(residual[i, j]),
        max_residual=max_normalized,
        symbol_vanishes_on_atom=flag,
    )
