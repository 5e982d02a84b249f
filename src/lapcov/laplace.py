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
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import FMuIntegralZero, MassZero, NumericOverflow
from .measures import (
    MODE_ABS_F_SQ,
    MODE_CONJ_F,
    MODE_F,
    AtomicMeasure,
    Symbol,
    charges,
    negligible,
    normalized,
    symbol_values,
    total_mass,
    weight_scale,
)
from .semigroups import (
    HALF_LINE,
    NAT_ADD,
    NAT_MULT,
    Semigroup,
    _check_pairs,
    box_closure,
    character_matrix,
    closure_table,
    complex_product,
    element_exponents,
    element_labels,
    identity,
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

# bytes per array in a grid x grid pass that runs in blocks of rows: below glibc's default mmap
# threshold (128 KB), so every block reuses heap memory instead of mapping and faulting in fresh pages
_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class Tolerances:
    """Decision thresholds.

    ``mass`` is relative to the total variation, ``residual`` to the quadratic
    residual scale, ``rank`` to the largest singular value.  ``mass`` and
    ``rank`` lie in (0, 1): since |mu(Gamma)| <= sum_k |w_k| and sigma_1 is
    the largest singular value, a bound of 1 or more calls every measure
    massless and every matrix rank zero.  ``residual`` may exceed 1, as the
    normalized residual can.
    """

    mass: float = 1e-10
    residual: float = 1e-8
    rank: float = 1e-8

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.mass, self.residual, self.rank)):
            raise ValueError("tolerances must be positive and finite")
        if not (self.mass < 1 and self.rank < 1):
            raise ValueError("mass and rank tolerances must be below 1")


def mass_vanishes(mu: AtomicMeasure, tol: Tolerances) -> bool:
    """Whether the hypothesis mu(Gamma) != 0 fails numerically: |mu(Gamma)| is negligible against sum_k |w_k|."""
    return negligible(total_mass(mu), weight_scale(mu), tol.mass)


@dataclass(frozen=True)
class EvaluationGrid:
    """A finite probe set of semigroup elements.

    Elements are deduplicated and sorted, the identity is always included,
    and ``pairs_closure`` additionally contains every pairwise product, so
    recovered character tables can be checked for multiplicativity.
    ``products[i, j]`` is the index in ``pairs_closure`` of
    ``elements[i] * elements[j]``.  The identity sorts first, so
    ``products[0]`` indexes the elements themselves.

    ``exponents`` and ``closure_exponents`` are the read-only exponent arrays
    of ``elements`` and ``pairs_closure`` (see ``semigroups``): (n, d) int64
    coordinates or prime-exponent vectors, or the reals of the half-line.
    Both are built once, here, and every character matrix over the grid
    reads them; the closure is built in exponent space, without factoring.
    The constructor takes ``(semigroup, elements, order)``, checks each
    element with ``element_exponents`` and sorts out the closure with
    ``closure_table``; ``default_grid`` hands over its box instead, whose
    closure ``box_closure`` writes down in closed form.  The other four
    fields are derived, and equality ignores them.
    """

    semigroup: Semigroup
    elements: tuple
    order: int = None
    pairs_closure: tuple = field(default=None, init=False, compare=False)
    products: np.ndarray = field(default=None, init=False, compare=False, repr=False)
    exponents: np.ndarray = field(default=None, init=False, compare=False, repr=False)
    closure_exponents: np.ndarray = field(default=None, init=False, compare=False, repr=False)
    # the top coordinate of a default grid's box {0..top}^d, set by _from_box
    _box_top: ClassVar[int] = None

    def __post_init__(self):
        sg = self.semigroup
        if self._box_top is None:
            rows, closure, products = closure_table(sg, element_exponents(sg, (identity(sg), *self.elements)))
        else:
            rows, closure, products = box_closure(sg, self._box_top)
        for array in (rows, closure, products):
            array.setflags(write=False)
        object.__setattr__(self, "elements", _as_elements(sg, rows))
        object.__setattr__(self, "pairs_closure", _as_elements(sg, closure))
        object.__setattr__(self, "products", products)
        object.__setattr__(self, "exponents", rows)
        object.__setattr__(self, "closure_exponents", closure)

    @classmethod
    def _from_box(cls, semigroup: Semigroup, top: int, order: int) -> "EvaluationGrid":
        """The grid of the exponent box {0..top}^d, without validating an element."""
        grid = object.__new__(cls)
        for name, value in (("semigroup", semigroup), ("order", order), ("_box_top", top)):
            object.__setattr__(grid, name, value)
        grid.__post_init__()
        return grid


def _as_elements(semigroup: Semigroup, rows: np.ndarray) -> tuple:
    """The elements of exponent ``rows`` as the plain values ``validate_element`` returns."""
    labels = element_labels(semigroup, rows).tolist()
    return tuple(map(tuple, labels)) if semigroup.family == NAT_ADD else tuple(labels)


def default_grid(semigroup: Semigroup, order: int = None) -> EvaluationGrid:
    """The standard probe grid for each semigroup family, built in exponent space.

    nat_add: all multi-indices with components <= order (4 for d <= 2,
    2 for d == 3, 1 beyond).  nat_mult: integers with prime exponents
    <= order (default 2), so their exponent rows are the same multi-indices.
    half_line: 0, 0.25, ..., 0.25 * order (default 8).  An order <= 0 gives
    the identity alone.  The grid is built from its box: no element is
    validated or factored, and the closure is the box of twice the order
    (``box_closure``).  A grid too large for its pair table raises
    GridTooLarge before any row is built.
    """
    if order is None and semigroup.family == NAT_ADD:
        order = 4 if semigroup.dim <= 2 else (2 if semigroup.dim == 3 else 1)
    elif order is None:
        order = 2 if semigroup.family == NAT_MULT else 8
    top = max(order, 0)
    _check_pairs((top + 1) ** semigroup.dim, "a grid")
    return EvaluationGrid._from_box(semigroup, top, order)


class CharacterTable(Mapping):
    """Read-only {element: complex} view of ``array``, a complex array indexed like ``grid.pairs_closure``.

    The engine reads ``array`` by closure index; a lookup by element builds
    the element index on first use.  ``keys()``, ``values()`` and
    ``items()`` are the Mapping's, in closure order.
    """

    def __init__(self, grid: EvaluationGrid, array: np.ndarray):
        self.grid = grid
        self.array = array
        self._index = None

    def __getitem__(self, element) -> complex:
        if self._index is None:
            self._index = {el: i for i, el in enumerate(self.grid.pairs_closure)}
        return complex(self.array[self._index[element]])

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        return iter(self.grid.pairs_closure)


@dataclass(frozen=True)
class CovarianceVerdict:
    """Outcome of the covariance decision.

    ``character`` is the recovered candidate character on the grid closure
    (JSON name: gamma), a read-only ``CharacterTable`` view keyed by element
    over a closure-indexed complex array; ``point`` is its location
    in coordinates (JSON name: zeta) when it could be resolved; ``mass`` is
    the Dirac constant (JSON name: c).  ``max_residual`` is normalized by the
    quadratic residual scale.  Point-mass verdicts are certified only
    relative to the probe grid; non-point-mass verdicts carry an explicit
    witness pair.  ``read_point_mass`` builds the point-mass fields (the
    ``recover`` command prints them); ``decide_covariance`` adds the residual
    and the symbol flag.
    """

    kind: str
    mass: complex = None
    character: CharacterTable = None
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

    ``rows`` and ``cols`` are exponent arrays: a grid's ``exponents``, or
    ``element_exponents`` of any elements.  Atom k contributes
    (w_k F(z_k) rho_{z_k}(s)) conj(rho_{z_k}(t)), and the contributions are
    added in atom order, so an entry does not depend on the block it is
    computed in.  ``symbol=None`` means F == 1; ``mode`` picks F, conj F or
    |F|^2.
    """
    wf = charges(mu.weight_array, symbol_values(symbol, mu.points), mode)
    return charge_block(mu.semigroup, mu.points, wf, rows, cols)


def charge_block(semigroup: Semigroup, points, wf: np.ndarray, rows, cols) -> np.ndarray:
    """sum_k wf_k rho_{z_k}(s) conj(rho_{z_k}(t)) for s in ``rows`` and t in ``cols``: ``transform_block`` on given charges.

    ``wf`` holds the charges of the atoms at ``points`` (``measures.charges``).
    A value that is not finite raises NumericOverflow.
    """
    ps = character_matrix(semigroup, points, rows)
    pt = ps if np.array_equal(cols, rows) else character_matrix(semigroup, points, cols)
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    # finite charges and characters can still overflow in their products and sums
    with np.errstate(over="ignore", invalid="ignore"):
        left_re, left_im = complex_product(wf.real[:, None], wf.imag[:, None], ps.real, ps.imag)
        for k in range(len(wf)):
            re, im = complex_product(left_re[k][:, None], left_im[k][:, None], pt.real[k], -pt.imag[k])
            out.real += re
            out.imag += im
    if not np.isfinite(out).all():
        raise NumericOverflow("a pair-function value overflows the float range")
    return out


def laplace_transform(mu: AtomicMeasure, symbol, s, t, mode: str = MODE_F) -> complex:
    """L[mu, F](s, t); ``symbol=None`` means F == 1, ``mode`` picks F, conj F or |F|^2."""
    sg = mu.semigroup
    return complex(transform_block(mu, symbol, element_exponents(sg, (s,)), element_exponents(sg, (t,)), mode)[0, 0])


def covariance_residual(mu: AtomicMeasure, symbol, s, t) -> complex:
    """R(s, t) = mass * L[|F|^2](s,t) - L[F](s,e) * L[conj F](e,t)."""
    e = identity(mu.semigroup)
    mass = total_mass(mu)
    quad = laplace_transform(mu, symbol, s, t, mode=MODE_ABS_F_SQ)
    left = laplace_transform(mu, symbol, s, e, mode=MODE_F)
    right = laplace_transform(mu, symbol, e, t, mode=MODE_CONJ_F)
    return mass * quad - left * right


def degenerate_check(left: np.ndarray, right: np.ndarray, scale: float, tol: Tolerances) -> str:
    """Classify a measure of (numerically) zero total mass from its two side sums.

    ``left`` is L[mu,F](s,e) and ``right`` L[mu,conj F](e,s) over the grid,
    formed from the normalized weights and F, and ``scale`` is
    sum_k |w_k| * max_{k,s} |F(z_k) rho_{z_k}(s)| (``decide_covariance``
    forms all three).  Reports whether the analytic side vanishes for every
    grid s, or the conjugate side does, or neither; when both vanish the
    analytic case is reported.
    """
    if negligible(left, scale, tol.residual).all():
        return MASS_ZERO_ANALYTIC
    if negligible(right, scale, tol.residual).all():
        return MASS_ZERO_CONJUGATE
    return MASS_ZERO_NEITHER


def recover_point_mass(mu: AtomicMeasure, symbol, grid: EvaluationGrid, tol: Tolerances = None):
    """Dirac constant and candidate character table from transform ratios.

    Returns ``(mass, table)`` with mass = mu(support) and
    table[s] = L[mu,F](s,e) / L[mu,F](e,e) for every s in the grid closure,
    as a ``CharacterTable`` over one closure-indexed array.  The ratios are
    formed from the normalized weights and F (``measures.normalized``).
    Raises FMuIntegralZero when the denominator is below tolerance, and
    NumericOverflow when a ratio is not finite.
    """
    tol = tol or Tolerances()
    wf = charges(normalized(mu.weight_array)[0], normalized(symbol_values(symbol, mu.points))[0])
    numerators = character_matrix(mu.semigroup, mu.points, grid.closure_exponents).T @ wf
    denominator = complex(numerators[0])  # the identity sorts first in the closure
    if negligible(denominator, float(np.sum(np.abs(wf))), tol.mass):
        raise FMuIntegralZero("the integral of F against mu is numerically zero")
    # a large character value can still overflow its ratio
    with np.errstate(over="ignore", invalid="ignore"):
        values = numerators / denominator
    values[0] = 1 + 0j  # the ratio at the identity is 1 by definition
    if not np.isfinite(values).all():
        raise NumericOverflow("a transform ratio overflows the float range")
    values.setflags(write=False)
    return total_mass(mu), CharacterTable(grid, values)


def multiplicativity_defect(values: np.ndarray, grid: EvaluationGrid) -> float:
    """max over grid pairs of |gamma(s*t) - gamma(s)*gamma(t)|.

    ``values`` is gamma as a complex array indexed like ``grid.pairs_closure``
    (a ``CharacterTable``'s ``array``).  Computed in real arithmetic in the
    order Python's complex operations use, so the result matches a scalar
    loop bit for bit.  The gap at (s, t) equals the gap at (t, s) bit for bit
    (s*t = t*s, and real products and sums commute), so only the pairs with t
    at or after s are read, in blocks of rows whose arrays stay within
    ``_BLOCK_BYTES``.
    """
    re, im = values.real, values.imag
    at = grid.products[0]
    br, bi = re[at], im[at]
    rows = max(1, _BLOCK_BYTES // br.nbytes)
    # an overflowing product or square is inf, and inf - inf is NaN, as in Python's complex arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        return max(_largest_gap(re, im, grid.products, br, bi, i, i + rows) for i in range(0, len(at), rows))


def _largest_gap(re, im, products, br, bi, start: int, stop: int) -> float:
    """max |gamma(st) - gamma(s) gamma(t)| over grid rows s in ``start:stop`` and columns t from ``start`` on.

    gamma is ``re + i im`` over the closure, indexed by ``products``; its
    values on the elements are ``br + i bi``.  The gaps are formed in the
    arrays their gathers made; the largest is located by its squared modulus,
    and ``np.hypot`` reads only the gaps whose squares come within 2**-40 of it.
    """
    ar, ai = br[start:stop, None], bi[start:stop, None]
    br, bi = br[start:], bi[start:]
    dx, dy = re[products[start:stop, start:]], im[products[start:stop, start:]]
    # the gaps re[st] - (ar br - ai bi) and im[st] - (ar bi + ai br), formed in place
    term, other = np.multiply(ar, br), np.multiply(ai, bi)
    term -= other
    dx -= term
    np.multiply(ar, bi, out=term)
    np.multiply(ai, br, out=other)
    term += other
    dy -= term
    squares = np.multiply(dx, dx, out=term)
    squares += np.multiply(dy, dy, out=other)
    top = float(squares.max())
    if math.isfinite(top) and top >= 2.0**-960:
        # hypot is within a few ulps of the modulus and dx^2 + dy^2 within a few of its square (with
        # 2**-1074 absolute), so a gap whose hypot can be the largest has its square within 2**-40 of top
        near = squares >= top * (1 - 2.0**-40)
        return float(np.hypot(dx[near], dy[near]).max())
    # a NaN or overflowing square, or squares that may have underflowed: hypot reads every gap,
    # and fmax skips NaN gaps, as max() over a running value does
    return float(np.fmax.reduce(np.hypot(dx, dy), axis=None, initial=0.0))


def factorization_residual(f, s, t) -> complex:
    """f(e,e) f(s,t) - f(s,e) f(e,t) for a pair function f."""
    e = identity(f.semigroup)
    return f(e, e) * f(s, t) - f(s, e) * f(e, t)


def resolve_point(grid: EvaluationGrid, values: np.ndarray):
    """Locate the recovered character, the closure-indexed complex array ``values``, in coordinates.

    nat_add reads coordinate values at the unit multi-indices, nat_mult at
    the retained primes: both are the closure's unit exponent rows.
    half_line inverts one exponential and checks the chosen logarithm branch
    for consistency across the whole grid; returns ``(None, False)`` when no
    branch is consistent.  The family is ``grid.semigroup``'s.
    """
    semigroup = grid.semigroup
    if semigroup.family != HALF_LINE:
        rows = grid.closure_exponents
        units = np.flatnonzero(rows.sum(axis=1) == 1)  # nonnegative rows summing to 1
        at = dict(zip(rows[units].argmax(axis=1).tolist(), values[units].tolist()))
        if len(at) < semigroup.dim:
            return None, False
        return tuple(at[c] for c in range(semigroup.dim)), True
    # the identity 0.0 sorts first, so the smallest nonzero element is the second
    if len(grid.elements) < 2:
        return None, False
    s0 = grid.elements[1]
    gamma = values[grid.products[0]].tolist()
    base = gamma[1]
    if abs(base) < 1e-300:
        return None, False
    principal = -cmath.log(base) / s0
    # equally spaced grids cannot distinguish branches differing by 2*pi*k/s0,
    # so candidates are tried nearest-to-principal first
    for k in sorted(range(-8, 9), key=abs):
        z = principal + (2 * math.pi * k / s0) * 1j
        if z.real < -1e-9:
            continue
        if all(abs(g - cmath.exp(-s * z)) < _HALF_LINE_POINT_TOL for s, g in zip(grid.elements, gamma)):
            return (z,), True
    return None, False


def read_point_mass(mu: AtomicMeasure, symbol, grid: EvaluationGrid, tol: Tolerances = None) -> CovarianceVerdict:
    """The point mass c * delta_gamma read off mu's transform ratios, as a ``point_mass`` verdict.

    Applies the mu(Gamma) != 0 gate (MassZero), recovers c and the character
    table (FMuIntegralZero when the integral of F vanishes), resolves zeta
    and measures the table's multiplicativity defect.  The residual fields
    keep their defaults: this reads the point mass, it does not decide
    that mu is one.
    """
    tol = tol or Tolerances()
    if mass_vanishes(mu, tol):
        raise MassZero("total mass is numerically zero; nothing to recover")
    mass, table = recover_point_mass(mu, symbol, grid, tol)
    point, resolved = resolve_point(grid, table.array)
    return CovarianceVerdict(
        kind=POINT_MASS,
        mass=mass,
        character=table,
        point=point,
        point_resolved=resolved,
        character_defect=multiplicativity_defect(table.array, grid),
    )


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
    the residual's quadratic scaling in mu.  Both are formed from the weights
    times 2**a and F times 2**b (``measures.normalized``), so the verdict,
    the witness and ``max_residual`` do not depend on the scale of either;
    the witness residual is scaled back by 2**(-2(a + b)).  Atoms where |F|
    is negligible against max |F| are flagged: for such measures the
    equation constrains only F-weighted data, not mu itself.
    """
    sg = mu.semigroup
    grid = grid or default_grid(sg)
    tol = tol or Tolerances()
    if grid.semigroup != sg:
        raise ValueError("grid and measure use different semigroups")

    fv, b = normalized(symbol_values(symbol, mu.points))
    weights, a = normalized(mu.weight_array)
    abs_f = np.abs(fv)
    flag = bool(negligible(abs_f, float(abs_f.max()), tol.residual).any())
    P = character_matrix(sg, mu.points, grid.exponents)
    P_conj = P.conj()
    # finite charges and characters can still overflow in their products
    with np.errstate(over="ignore", invalid="ignore"):
        left = P.T @ charges(weights, fv)
        right = P_conj.T @ charges(weights, fv, MODE_CONJ_F)
        fp_max = float(np.max(abs_f[:, None] * np.abs(P), initial=0.0))

    if mass_vanishes(mu, tol):
        case = degenerate_check(left, right, float(np.abs(weights).sum()) * fp_max, tol)
        return CovarianceVerdict(kind=DEGENERATE, degenerate_case=case, symbol_vanishes_on_atom=flag)

    with np.errstate(over="ignore", invalid="ignore"):
        residual = P.T @ (charges(weights, fv, MODE_ABS_F_SQ)[:, None] * P_conj)
        # mass * quad - left right^T in quad's buffer; np.multiply keeps the scalar the first operand,
        # as ``mass * quad`` has it (``quad *= mass`` rounds some products otherwise)
        np.multiply(complex(sum(weights.tolist())), residual, out=residual)
        # a block of rows at a time, so no grid x grid temporary is made: each row of the outer
        # product runs the same multiply loop over the same row, whatever the block
        rows = max(1, _BLOCK_BYTES // residual[0].nbytes)
        for i in range(0, len(left), rows):
            residual[i : i + rows] -= np.outer(left[i : i + rows], right)
        abs_residual = np.abs(residual)
        weight_square = float(np.sum(np.abs(weights) ** 2))
    max_raw = float(abs_residual.max())
    try:
        scale = weight_square * fp_max**2
    except OverflowError:
        scale = math.inf
    if not (math.isfinite(max_raw) and math.isfinite(scale)):
        raise NumericOverflow("the covariance residual or its scale overflows the float range")
    max_normalized = max_raw / scale if scale > 0 else 0.0

    if negligible(max_raw, scale, tol.residual):
        try:
            verdict = read_point_mass(mu, symbol, grid, tol)
        except FMuIntegralZero:
            verdict = CovarianceVerdict(kind=DEGENERATE, degenerate_case=F_MU_ZERO)
        return replace(verdict, max_residual=max_normalized, symbol_vanishes_on_atom=flag)

    flat_index = int(np.argmax(abs_residual))
    i, j = divmod(flat_index, len(grid.elements))
    witness, back = complex(residual[i, j]), -2 * (a + b)
    try:
        witness_residual = complex(math.ldexp(witness.real, back), math.ldexp(witness.imag, back))
    except OverflowError:
        raise NumericOverflow("the witness residual overflows the float range") from None
    return CovarianceVerdict(
        kind=NOT_POINT_MASS,
        witness=(grid.elements[i], grid.elements[j]),
        witness_residual=witness_residual,
        max_residual=max_normalized,
        symbol_vanishes_on_atom=flag,
    )
