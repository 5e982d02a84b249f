"""Shift-operator algebra on pair functions, variation norms, and definiteness checks.

Functions f on S x S carry an action of shift operators
(E_{(a,b)} f)(s, t) = f(a s, b t).  The pair involution swaps components,
(s, t)* = (t, s); the adjoint of a shift combination conjugates coefficients
and swaps each shift pair.  These are the desk-scale pieces of the
bounded-variation description of generalized Laplace transforms.
"""

import itertools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import MissingGridValue
from .laplace import EvaluationGrid
from .measures import AtomicMeasure, Symbol, charges, symbol_values
from .semigroups import Semigroup, _check_pairs, character_matrix, combine, identity, validate_element

ADMISSIBLE_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)


@dataclass(frozen=True)
class ShiftCombination:
    """Finite linear combination of shift operators, stored as (a, b, coeff) terms."""

    terms: tuple

    def normalized(self) -> "ShiftCombination":
        """Merge coefficients of coinciding shifts, drop exact zeros, sort terms."""
        merged = {}
        for a, b, coeff in self.terms:
            key = (a, b)
            merged[key] = merged.get(key, 0j) + complex(coeff)
        terms = tuple(
            (a, b, c) for (a, b), c in sorted(merged.items()) if c != 0
        )
        return ShiftCombination(terms)


def identity_op(semigroup: Semigroup) -> ShiftCombination:
    e = identity(semigroup)
    return ShiftCombination(((e, e, 1 + 0j),))


def adjoint_op(op: ShiftCombination) -> ShiftCombination:
    """Conjugate coefficients and swap each shift pair."""
    return ShiftCombination(
        tuple((b, a, complex(c).conjugate()) for a, b, c in op.terms)
    ).normalized()


def compose(semigroup: Semigroup, op1: ShiftCombination, op2: ShiftCombination) -> ShiftCombination:
    """Product in the shift algebra: termwise convolution of the shift pairs."""
    terms = []
    for a1, b1, c1 in op1.terms:
        for a2, b2, c2 in op2.terms:
            terms.append(
                (combine(semigroup, a1, a2), combine(semigroup, b1, b2), c1 * c2)
            )
    return ShiftCombination(tuple(terms)).normalized()


def admissible_generator(semigroup: Semigroup, pair, phase) -> ShiftCombination:
    """The self-adjoint generator (1/4)(I + (phase/2) E_a + (conj phase/2) E_{a*}).

    ``pair`` is (a, b) in S x S and ``phase`` one of 1, -1, i, -i.  Summing the
    four generators of a fixed pair gives back the identity operator.
    """
    phase = complex(phase)
    if phase not in ADMISSIBLE_PHASES:
        raise ValueError("phase must be one of 1, -1, i, -i")
    a, b = pair
    a = validate_element(semigroup, a)
    b = validate_element(semigroup, b)
    e = identity(semigroup)
    return ShiftCombination(
        (
            (e, e, 0.25 + 0j),
            (a, b, phase / 8),
            (b, a, phase.conjugate() / 8),
        )
    ).normalized()


class PairTable(Mapping):
    """Read-only {(s, t): complex} view of a matrix indexed by ``elements`` on both axes."""

    def __init__(self, elements: tuple, matrix: np.ndarray):
        self._elements = elements
        self._index = {el: i for i, el in enumerate(elements)}
        self._matrix = matrix

    def __getitem__(self, key) -> complex:
        try:
            s, t = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        return complex(self._matrix[self._index[s], self._index[t]])

    def __len__(self) -> int:
        return len(self._elements) ** 2

    def __iter__(self):
        return itertools.product(self._elements, repeat=2)


class QuotientTable(Mapping):
    """Read-only view of ``values`` divided by ``divisor`` at each lookup."""

    def __init__(self, values: Mapping, divisor: complex):
        self._values = values
        self._divisor = divisor

    def __getitem__(self, key) -> complex:
        return self._values[key] / self._divisor

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)


@dataclass(frozen=True, eq=False)
class PairFunction:
    """A table of complex values on pairs of grid-closure elements.

    Calling it outside the stored domain raises MissingGridValue; shift
    combinations therefore only resolve while their probes stay inside the
    closure.
    """

    grid: EvaluationGrid
    values: Mapping

    @property
    def semigroup(self) -> Semigroup:
        return self.grid.semigroup

    def __call__(self, s, t) -> complex:
        try:
            return self.values[(s, t)]
        except KeyError:
            raise MissingGridValue(f"pair function undefined at ({s}, {t})") from None

    def divided_by(self, divisor: complex) -> "PairFunction":
        """f / divisor on the same grid, divided at each lookup."""
        return PairFunction(self.grid, QuotientTable(self.values, divisor))


def pair_function_from_measure(mu: AtomicMeasure, grid: EvaluationGrid, symbol: Symbol = None) -> PairFunction:
    """Tabulate the (optionally F-weighted) transform of mu on closure x closure.

    A closure too large for the table raises GridTooLarge before any of it is built.
    """
    closure = grid.pairs_closure
    _check_pairs(len(closure), "a grid closure")
    w = charges(mu, symbol_values(symbol, mu.points))
    P = character_matrix(mu.semigroup, mu.points, grid.closure_exponents)
    return PairFunction(grid, PairTable(closure, P.T @ (w[:, None] * P.conj())))


def semicharacter_from_point(semigroup: Semigroup, point, grid: EvaluationGrid) -> PairFunction:
    """rho(s) conj(rho(t)) for the character at ``point``: the table of the unit point mass there."""
    return pair_function_from_measure(AtomicMeasure(semigroup, ((point, 1),)), grid)


def apply_shift(op: ShiftCombination, f: PairFunction, at) -> complex:
    """Evaluate (sum_i c_i E_{(a_i, b_i)}) f at the pair ``at``."""
    s, t = at
    sg = f.semigroup
    total = 0j
    for a, b, coeff in op.terms:
        total += coeff * f(combine(sg, a, s), combine(sg, b, t))
    return total


def bv_norm(f: PairFunction, operators) -> float:
    """Variation sum sum_T |T f(e, e)| over a finite operator family."""
    e = identity(f.semigroup)
    return float(sum(abs(apply_shift(op, f, (e, e))) for op in operators))


@dataclass(frozen=True)
class DefinitenessResult:
    min_eigenvalue: float
    is_positive: bool
    asymmetry: float        # || G - G* ||_F of the raw pair-function Gram matrix


def positive_definite_check(f: PairFunction, points, rel_tol: float = 1e-10) -> DefinitenessResult:
    """Least eigenvalue of the Gram matrix G[j,k] = f((s_j, t_j) (s_k, t_k)*).

    ``points`` is a list of pairs (s, t); with the swap involution the probed
    arguments are (s_j t_k, t_j s_k).  The Gram matrix is symmetrized before
    the eigenvalue computation; its raw asymmetry is reported separately.
    """
    sg = f.semigroup
    n = len(points)
    gram = np.empty((n, n), dtype=complex)
    for j, (sj, tj) in enumerate(points):
        for k, (sk, tk) in enumerate(points):
            gram[j, k] = f(combine(sg, sj, tk), combine(sg, tj, sk))
    hermitian = (gram + gram.conj().T) / 2.0
    asymmetry = float(np.linalg.norm(gram - gram.conj().T))
    min_eig = float(np.linalg.eigvalsh(hermitian).min())
    trace = abs(float(np.trace(hermitian).real))
    return DefinitenessResult(min_eig, min_eig >= -rel_tol * trace, asymmetry)


def semicharacter_defect(f: PairFunction, points) -> float:
    """How far f is from being a semicharacter on the probed pairs.

    Maximum of |f(e,e) - 1| and, over ordered pairs of probe points,
    |f((s,t)(s',t')*) - f(s,t) conj(f(s',t'))|.
    """
    sg = f.semigroup
    e = identity(sg)
    defect = abs(f(e, e) - 1.0)
    for (s, t), (s2, t2) in itertools.product(points, repeat=2):
        lhs = f(combine(sg, s, t2), combine(sg, t, s2))
        defect = max(defect, abs(lhs - f(s, t) * f(s2, t2).conjugate()))
    return float(defect)
