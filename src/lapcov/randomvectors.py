"""Constancy test for bounded discrete complex random vectors.

A finite-support random pair (X, Y) with E[Y] != 0 induces the atomic measure
with an atom p * y at each distinct X-value; X is constant almost surely
exactly when that measure passes the covariance decision with the trivial
symbol.  The moment-condition residual

    E[Y] E[X^m conj(X)^n Y] - E[X^m Y] E[conj(X)^n Y]

coincides with the covariance residual of the induced measure at (m, n).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ExpectationYZero
from .laplace import (
    DEGENERATE,
    POINT_MASS,
    CovarianceVerdict,
    Tolerances,
    decide_covariance,
    default_grid,
)
from .measures import AtomicMeasure, Columns
from .semigroups import Semigroup, complex_product, monomial

CONSTANT = "constant"
NOT_CONSTANT = "not_constant"


def _normalized(outcomes: tuple) -> tuple:
    """(p, x, y) outcomes as float, tuple of complex and complex, checked one by one: the first fault raises."""
    normalized = []
    for p, x, y in outcomes:
        p = float(p)
        if p < 0:
            raise ValueError("probabilities must be nonnegative")
        x = tuple(complex(v) for v in ((x,) if isinstance(x, (int, float, complex)) else x))
        if normalized and len(x) != len(normalized[0][1]):
            raise ValueError("all outcomes must share the vector dimension")
        normalized.append((p, x, complex(y)))
    if not normalized:
        raise ValueError("a random vector needs at least one outcome")
    return tuple(normalized)


def _arrays(columns) -> list:
    """(p, x, y) columns as float, (n, dim) complex and complex arrays; None if one does not fit or a p is negative."""
    try:
        ps, xs, ys = map(np.asarray, columns)
    except (TypeError, ValueError):
        return None
    numeric = ps.dtype.kind in "biuf" and xs.dtype.kind in "biufc" and ys.dtype.kind in "biufc"
    if not numeric or xs.ndim != 2 or not ps.shape == ys.shape == xs.shape[:1] != (0,) or (ps < 0).any():
        return None
    return [np.array(ps, dtype=float), np.array(xs, dtype=complex), np.array(ys, dtype=complex)]  # copies: frozen below


def _running_sum(values: np.ndarray):
    """``values`` added left to right from 0, as a Python loop adds them: numpy's pairwise sum rounds otherwise."""
    return (np.cumsum(values)[-1] + 0.0).item()


@dataclass(frozen=True)
class DiscreteRandomVector:
    """Finite list of outcomes (probability, x-vector, y-value), kept as ``Columns`` of read-only arrays.

    ``outcomes`` is a sequence of (p, x, y) triples, checked one by one, or
    ``Columns`` of probabilities, an (n, dim) x-array and y-values that numpy
    reads whole, or checks one by one when they do not fit.
    """

    outcomes: Columns
    x_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        columns = _arrays(self.outcomes.columns) if isinstance(self.outcomes, Columns) else None
        if columns is None:  # normalized outcomes always fit
            columns = _arrays(zip(*_normalized(tuple(self.outcomes))))
        if abs(_running_sum(columns[0]) - 1.0) > 1e-12:
            raise ValueError("outcome probabilities must sum to 1")
        for column in columns:
            column.flags.writeable = False
        object.__setattr__(self, "outcomes", Columns(*columns))
        object.__setattr__(self, "x_array", columns[1])

    @property
    def dim(self) -> int:
        return self.x_array.shape[1]


def moment_condition_residual(rv: DiscreteRandomVector, m, n) -> complex:
    """E[Y] E[X^m conj(X)^n Y] - E[X^m Y] E[conj(X)^n Y]."""
    m = tuple(int(i) for i in m)
    n = tuple(int(i) for i in n)
    e_y = 0j
    e_mixed = 0j
    e_analytic = 0j
    e_conjugate = 0j
    for p, x, y in rv.outcomes:
        xm = monomial(x, m)
        xn_bar = monomial(tuple(v.conjugate() for v in x), n)
        e_y += p * y
        e_mixed += p * xm * xn_bar * y
        e_analytic += p * xm * y
        e_conjugate += p * xn_bar * y
    return e_y * e_mixed - e_analytic * e_conjugate


def _weights(rv: DiscreteRandomVector) -> np.ndarray:
    """p * y of each outcome, as Python multiplies a float by a complex."""
    ps, _, ys = rv.outcomes.columns
    weights = np.empty(len(ps), dtype=complex)
    weights.real, weights.imag = complex_product(ps, 0.0, ys.real, ys.imag)
    return weights


def as_measure(rv: DiscreteRandomVector) -> AtomicMeasure:
    """The induced atomic measure: atom p*y at each X-value (equal X merged)."""
    sg = Semigroup.nat_add(rv.dim)
    return AtomicMeasure(sg, Columns(rv.x_array, _weights(rv)))


@dataclass(frozen=True)
class VectorVerdict:
    kind: str
    point: tuple = None             # the constant value of X
    witness: tuple = None           # (m, n) multi-index pair
    residual: complex = None        # moment-condition residual at the witness
    covariance: CovarianceVerdict = None


def decide_constant_vector(
    rv: DiscreteRandomVector, max_order: int = 3, tol: Tolerances = None
) -> VectorVerdict:
    """Decide whether X is constant almost surely (given E[Y] != 0).

    Probes all moment pairs with components up to ``max_order``.  E[Y] is
    the total mass of the induced measure, so the nonzero-expectation
    hypothesis is the engine's mass gate on the merged atoms: ExpectationYZero
    is raised when the covariance engine calls that measure degenerate.
    """
    tol = tol or Tolerances()
    mu = as_measure(rv)
    grid = default_grid(mu.semigroup, order=max_order)
    verdict = decide_covariance(mu, None, grid, tol)
    if verdict.kind == POINT_MASS:
        return VectorVerdict(kind=CONSTANT, point=verdict.point, covariance=verdict)
    if verdict.kind == DEGENERATE:
        # with F == 1 either degenerate case means E[Y] = mu(Gamma) is numerically zero
        raise ExpectationYZero("E[Y] is numerically zero")
    return VectorVerdict(
        kind=NOT_CONSTANT,
        witness=verdict.witness,
        residual=verdict.witness_residual,
        covariance=verdict,
    )
