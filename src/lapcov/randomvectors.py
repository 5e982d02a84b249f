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
    NOT_POINT_MASS,
    POINT_MASS,
    CovarianceVerdict,
    Tolerances,
    decide_covariance,
    default_grid,
)
from .measures import AtomicMeasure, Columns, python_column
from .semigroups import Semigroup, monomial

CONSTANT = "constant"
NOT_CONSTANT = "not_constant"


def _normalized(outcomes: tuple) -> tuple:
    """(p, x, y) outcomes as float, tuple of complex and complex, checked one by one: the first fault raises."""
    normalized = []
    dim = None
    for p, x, y in outcomes:
        p = float(p)
        if p < 0:
            raise ValueError("probabilities must be nonnegative")
        if isinstance(x, (int, float, complex)):
            x = (x,)
        x = tuple(complex(v) for v in x)
        if dim is None:
            dim = len(x)
        elif len(x) != dim:
            raise ValueError("all outcomes must share the vector dimension")
        normalized.append((p, x, complex(y)))
    if not normalized:
        raise ValueError("a random vector needs at least one outcome")
    return tuple(normalized)


@dataclass(frozen=True)
class DiscreteRandomVector:
    """Finite list of outcomes (probability, x-vector, y-value).

    ``outcomes`` is a sequence of (p, x, y) triples, checked one by one, or
    ``Columns`` of probabilities, an (n, dim) x-array and y-values, which is
    kept as ``x_array`` without converting each outcome again.  When the
    columns do not fit, they are checked one by one too, which raises the
    first fault.
    """

    outcomes: tuple
    x_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fits = False
        if isinstance(self.outcomes, Columns):
            ps, xs, ys = self.outcomes.columns
            try:
                ps, xs, ys = list(map(float, python_column(ps))), np.asarray(xs), list(map(complex, python_column(ys)))
                fits = xs.dtype.kind in "biufc" and xs.ndim == 2 and not any(p < 0 for p in ps)
            except (TypeError, ValueError):
                pass  # the outcomes, read one by one below, name the fault
        if fits:
            xs = xs.astype(complex, copy=False)
            outcomes = tuple(zip(ps, map(tuple, xs.tolist()), ys))
        else:
            outcomes = _normalized(tuple(self.outcomes))
            xs = np.array([x for _, x, _ in outcomes], dtype=complex)
        if abs(sum(p for p, _, _ in outcomes) - 1.0) > 1e-12:
            raise ValueError("outcome probabilities must sum to 1")
        xs.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "x_array", xs)

    @property
    def dim(self) -> int:
        return len(self.outcomes[0][1])


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


def as_measure(rv: DiscreteRandomVector) -> AtomicMeasure:
    """The induced atomic measure: atom p*y at each X-value (equal X merged)."""
    sg = Semigroup.nat_add(rv.dim)
    return AtomicMeasure(sg, Columns(rv.x_array, [p * y for p, _, y in rv.outcomes]))


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

    Probes all moment pairs with components up to ``max_order``.  Raises
    ExpectationYZero when |E[Y]| falls below the mass tolerance, mirroring the
    nonzero-expectation hypothesis.
    """
    tol = tol or Tolerances()
    e_y = sum(p * y for p, _, y in rv.outcomes)
    y_scale = sum(p * abs(y) for p, _, y in rv.outcomes)
    if abs(e_y) < tol.mass * y_scale or y_scale == 0.0:
        raise ExpectationYZero("E[Y] is numerically zero")
    mu = as_measure(rv)
    grid = default_grid(mu.semigroup, order=max_order)
    verdict = decide_covariance(mu, None, grid, tol)
    if verdict.kind == POINT_MASS:
        return VectorVerdict(kind=CONSTANT, point=verdict.point, covariance=verdict)
    if verdict.kind == NOT_POINT_MASS:
        return VectorVerdict(
            kind=NOT_CONSTANT,
            witness=verdict.witness,
            residual=verdict.witness_residual,
            covariance=verdict,
        )
    # unreachable: the mass check above is the degenerate gate for F == 1
    raise AssertionError(f"unexpected covariance verdict {verdict.kind}")
