"""Shift-operator algebra on pair functions, variation norms, and definiteness checks.

Functions f on S x S carry an action of shift operators
(E_{(a,b)} f)(s, t) = f(a s, b t).  The pair involution swaps components,
(s, t)* = (t, s); the adjoint of a shift combination conjugates coefficients
and swaps each shift pair.  These are the desk-scale pieces of the
bounded-variation description of generalized Laplace transforms.
"""

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import MissingGridValue, NumericOverflow
from .laplace import EvaluationGrid, charge_block
from .measures import AtomicMeasure, Symbol, charges, symbol_values
from .semigroups import (
    Semigroup,
    _check_pairs,
    character_matrix,  # noqa: F401  (a lapcov.shifts binding that perfbench/layers.py traces)
    combine,
    identity,
    validate_element,
)

ADMISSIBLE_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)
# a Gram matrix is positive semidefinite when its least eigenvalue is >= -PD_TOL times its trace
PD_TOL = 1e-10


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


class TransformPairs(Mapping):
    """Read-only {(s, t): complex} view of L[mu, F] on closure x closure, computed when it is read.

    ``read`` computes a batch of pairs with one ``laplace.charge_block`` over
    the distinct closure elements the batch names, as rows and as columns,
    so each value equals ``transform_block``'s bit for bit.  A batch naming
    a pair outside the closure raises KeyError with the first such pair; a
    block value that is not finite raises NumericOverflow (``charge_block``).
    """

    def __init__(self, grid: EvaluationGrid, semigroup: Semigroup, points, wf: np.ndarray):
        self._grid = grid
        self._atoms = (semigroup, points, wf)
        self._index = {el: i for i, el in enumerate(grid.pairs_closure)}

    def read(self, keys) -> list:
        """The values at the list of pairs ``keys``, in order, as Python complex."""
        index = self._index
        block_at = {}  # closure index -> row and column of the block

        def position(element) -> int:
            return block_at.setdefault(index[element], len(block_at))

        try:
            at = [(position(s), position(t)) for s, t in keys]
        except (KeyError, TypeError, ValueError):
            raise KeyError(next(key for key in keys if key not in self)) from None
        exponents = self._grid.closure_exponents[list(block_at)]
        block = charge_block(*self._atoms, exponents, exponents)
        return block[tuple(np.array(at, dtype=np.int64).reshape(-1, 2).T)].tolist()

    def __getitem__(self, key) -> complex:
        return self.read([key])[0]

    def __contains__(self, key) -> bool:
        try:
            s, t = key
            return s in self._index and t in self._index
        except (TypeError, ValueError):
            return False

    def __len__(self) -> int:
        return len(self._index) ** 2

    def __iter__(self):
        return itertools.product(self._grid.pairs_closure, repeat=2)


def _read(values: Mapping, keys) -> list:
    """The values of ``values`` at ``keys``, in one batch when the mapping reads batches."""
    read = getattr(values, "read", None)
    return read(keys) if read is not None else [values[key] for key in keys]


class QuotientTable(Mapping):
    """Read-only view of ``values`` divided by ``divisor`` at each read, with Python's complex division."""

    def __init__(self, values: Mapping, divisor: complex):
        self._values = values
        self._divisor = divisor

    def read(self, keys) -> list:
        divisor = self._divisor
        return [value / divisor for value in _read(self._values, keys)]

    def __getitem__(self, key) -> complex:
        return self.read([key])[0]

    def __contains__(self, key) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)


@dataclass(frozen=True, eq=False)
class PairFunction:
    """A table of complex values on pairs of grid-closure elements.

    ``values`` is any mapping from pairs to complex: a dict, or a view
    computed when it is read.  Reading outside the stored domain raises
    MissingGridValue; shift combinations therefore only resolve while their
    probes stay inside the closure.
    """

    grid: EvaluationGrid
    values: Mapping

    @property
    def semigroup(self) -> Semigroup:
        return self.grid.semigroup

    def __call__(self, s, t) -> complex:
        return self.read([(s, t)])[0]

    def read(self, pairs) -> list:
        """f at each pair of the list ``pairs``, in one batch; MissingGridValue names the first pair outside the domain."""
        try:
            return _read(self.values, pairs)
        except KeyError:
            s, t = next(pair for pair in pairs if pair not in self.values)
            raise MissingGridValue(f"pair function undefined at ({s}, {t})") from None

    def divided_by(self, divisor: complex) -> "PairFunction":
        """f / divisor on the same grid, divided at each read."""
        return PairFunction(self.grid, QuotientTable(self.values, divisor))


def pair_function_from_measure(mu: AtomicMeasure, grid: EvaluationGrid, symbol: Symbol = None) -> PairFunction:
    """The (optionally F-weighted) transform of mu on closure x closure, computed where it is read.

    A closure too large for a table over its pairs raises GridTooLarge here,
    as do symbol values and charges that are not defined or not finite.
    The values are a ``TransformPairs`` view: a read computes only the pairs
    it names, and raises NumericOverflow on a value that is not finite,
    which ``positive_definite_check`` relies on.
    """
    _check_pairs(len(grid.pairs_closure), "a grid closure")
    wf = charges(mu.weight_array, symbol_values(symbol, mu.points))
    return PairFunction(grid, TransformPairs(grid, mu.semigroup, mu.points, wf))


def semicharacter_from_point(semigroup: Semigroup, point, grid: EvaluationGrid) -> PairFunction:
    """rho(s) conj(rho(t)) for the character at ``point``: the table of the unit point mass there."""
    return pair_function_from_measure(AtomicMeasure(semigroup, ((point, 1),)), grid)


def _shifted_pairs(sg: Semigroup, op: ShiftCombination, at) -> list:
    """The pairs (a_i s, b_i t) that the terms of ``op`` read at ``at`` = (s, t)."""
    s, t = at
    return [(combine(sg, a, s), combine(sg, b, t)) for a, b, _ in op.terms]


def _combination(op: ShiftCombination, values) -> complex:
    """sum_i c_i v_i over the terms of ``op``, taking v_i from the iterator ``values``."""
    total = 0j
    for _, _, coeff in op.terms:
        total += coeff * next(values)
    return total


def apply_shift(op: ShiftCombination, f: PairFunction, at) -> complex:
    """Evaluate (sum_i c_i E_{(a_i, b_i)}) f at the pair ``at``."""
    return _combination(op, iter(f.read(_shifted_pairs(f.semigroup, op, at))))


def bv_norm(f: PairFunction, operators) -> float:
    """Variation sum sum_T |T f(e, e)| over a finite operator family, read in one batch."""
    e = identity(f.semigroup)
    operators = list(operators)
    values = iter(f.read([pair for op in operators for pair in _shifted_pairs(f.semigroup, op, (e, e))]))
    return float(sum(abs(_combination(op, values)) for op in operators))


@dataclass(frozen=True)
class DefinitenessResult:
    min_eigenvalue: float
    is_positive: bool
    asymmetry: float        # || G - G* ||_F of the raw pair-function Gram matrix


def positive_definite_check(f: PairFunction, points) -> DefinitenessResult:
    """Least eigenvalue of the Gram matrix G[j,k] = f((s_j, t_j) (s_k, t_k)*).

    ``points`` is a list of pairs (s, t); with the swap involution the probed
    arguments are (s_j t_k, t_j s_k).  The Gram matrix is symmetrized before
    the eigenvalue computation; its raw asymmetry is reported separately.
    A finite Gram matrix can still overflow in its symmetrization or its
    eigenvalues: this function owns that check, so ``np.linalg.eigvalsh``
    sees finite matrices only, and raises NumericOverflow.
    """
    sg = f.semigroup
    n = len(points)
    pairs = [(combine(sg, sj, tk), combine(sg, tj, sk)) for sj, tj in points for sk, tk in points]
    gram = np.array(f.read(pairs), dtype=complex).reshape(n, n)
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = (gram + gram.conj().T) / 2.0
        asymmetry = float(np.linalg.norm(gram - gram.conj().T))
        trace = abs(float(np.trace(hermitian).real))
    if not (np.isfinite(hermitian).all() and math.isfinite(asymmetry) and math.isfinite(trace)):
        raise NumericOverflow("the Gram matrix overflows the float range")
    min_eig = float(np.linalg.eigvalsh(hermitian).min())
    if not math.isfinite(min_eig):
        raise NumericOverflow("the Gram matrix's least eigenvalue overflows the float range")
    return DefinitenessResult(min_eig, min_eig >= -PD_TOL * trace, asymmetry)


def semicharacter_defect(f: PairFunction, points) -> float:
    """How far f is from being a semicharacter on the probed pairs.

    Maximum of |f(e,e) - 1| and, over ordered pairs of probe points,
    |f((s,t)(s',t')*) - f(s,t) conj(f(s',t'))|.  A compared term that is
    not finite raises NumericOverflow: a NaN would otherwise drop out of
    the maximum.
    """
    sg = f.semigroup
    e = identity(sg)
    # one batch, in the order the pairs are used: f(e, e), then lhs, f(s, t), f(s', t') per probe pair
    pairs = [(e, e)]
    for (s, t), (s2, t2) in itertools.product(points, repeat=2):
        pairs += [(combine(sg, s, t2), combine(sg, t, s2)), (s, t), (s2, t2)]
    values = f.read(pairs)
    gaps = [values[0] - 1.0] + [values[i] - values[i + 1] * values[i + 2].conjugate() for i in range(1, len(values), 3)]
    gaps = np.array(gaps)
    # np.hypot rounds as abs does, and a modulus past the float range reads inf instead of raising
    with np.errstate(over="ignore"):
        terms = np.hypot(gaps.real, gaps.imag)
    if not np.isfinite(terms).all():
        raise NumericOverflow("the semicharacter defect overflows the float range")
    return float(terms.max())
