"""Atomic complex measures on character space, and the symbols weighting them."""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SymbolUndefinedAtAtom, ZeroWeightAtom
from .semigroups import Semigroup, char_eval, monomial, validate_point

# Points closer than this (Euclidean, all coordinates) are the same atom.
MERGE_TOL = 1e-12

# apply_symbol modes
MODE_F = "f"
MODE_CONJ_F = "conj_f"
MODE_ABS_F_SQ = "abs_f_sq"


def _point_distance(p, q) -> float:
    return math.sqrt(sum([abs(a - b) ** 2 for a, b in zip(p, q)]))


def _point_sort_key(p):
    return tuple(coord for z in p for coord in (z.real, z.imag))


# Half-width of the search window on the first real coordinate.  Any kept
# point within MERGE_TOL differs there by at most MERGE_TOL; the wider window
# keeps rounding from dropping one, and the distance test still decides.
_MERGE_WINDOW = 2 * MERGE_TOL


def merge_atoms(atoms) -> tuple:
    """Merge (point, weight) atoms whose points lie within ``MERGE_TOL``.

    Points are tuples of complex.  In input order, each atom joins the first
    kept point within ``MERGE_TOL`` (its weight is added there) or is kept
    itself, so a chain of close atoms may merge into several.  Returns the
    kept atoms sorted by point.

    The search looks only at kept points whose first coordinate's real part
    (the key, kept sorted) lies within ``_MERGE_WINDOW`` of the atom's.  A
    point whose key is not finite is within ``MERGE_TOL`` of nothing: it is
    kept without a search and is never a candidate.
    """
    kept, weights = [], []
    keys, order = [], []  # sorted finite keys of kept points, and their indices in ``kept``
    for point, weight in atoms:
        key = point[0].real
        if not math.isfinite(key):
            kept.append(point)
            weights.append(weight)
            continue
        lo = bisect.bisect_left(keys, key - _MERGE_WINDOW)
        hi = bisect.bisect_right(keys, key + _MERGE_WINDOW)
        near = [i for i in order[lo:hi] if _point_distance(point, kept[i]) <= MERGE_TOL]
        if near:
            weights[min(near)] += weight
            continue
        at = bisect.bisect_right(keys, key, lo, hi)
        keys.insert(at, key)
        order.insert(at, len(kept))
        kept.append(point)
        weights.append(weight)
    return tuple(sorted(zip(kept, weights), key=lambda atom: _point_sort_key(atom[0])))


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many weighted atoms on the character space of ``semigroup``.

    Construction normalizes points, merges atoms closer than ``MERGE_TOL``
    (weights summed), and sorts atoms for deterministic iteration.  Atoms with
    zero weight are kept: they still belong to the support set used for
    sup-norms.
    """

    semigroup: Semigroup
    atoms: tuple

    def __post_init__(self):
        atoms = []
        for point, weight in self.atoms:
            if isinstance(point, (int, float, complex)):
                point = (point,)
            atoms.append((validate_point(self.semigroup, point), complex(weight)))
        if not atoms:
            raise ValueError("a measure needs at least one atom")
        object.__setattr__(self, "atoms", merge_atoms(atoms))

    @property
    def points(self) -> tuple:
        return tuple(p for p, _ in self.atoms)

    @property
    def weights(self) -> tuple:
        return tuple(w for _, w in self.atoms)


@dataclass(frozen=True)
class Symbol:
    """The weighting function F evaluated on character points.

    Three spellings: a constant, a polynomial in the point coordinates
    (coefficients indexed by multi-index, 0**0 = 1), or an explicit table.
    A table must cover every atom it is paired with; lookups tolerate
    coordinate drift up to ``MERGE_TOL``.
    """

    kind: str
    const: complex = 1 + 0j
    coefficients: tuple = field(default=())
    entries: tuple = field(default=())

    @classmethod
    def constant(cls, value) -> "Symbol":
        return cls(kind="const", const=complex(value))

    @classmethod
    def polynomial(cls, coefficients) -> "Symbol":
        terms = tuple(
            sorted((tuple(int(i) for i in m), complex(c)) for m, c in dict(coefficients).items())
        )
        return cls(kind="poly", coefficients=terms)

    @classmethod
    def table(cls, values) -> "Symbol":
        entries = []
        for point, value in dict(values).items():
            if isinstance(point, (int, float, complex)):
                point = (point,)
            entries.append((tuple(complex(z) for z in point), complex(value)))
        entries.sort(key=lambda e: _point_sort_key(e[0]))
        return cls(kind="table", entries=tuple(entries))

    def at(self, point) -> complex:
        if self.kind == "const":
            return self.const
        if self.kind == "poly":
            total = 0j
            for exponents, coeff in self.coefficients:
                if len(exponents) != len(point):
                    raise ValueError("polynomial multi-index length mismatch")
                total += monomial(point, exponents, coeff)
            return total
        for entry_point, value in self.entries:
            if len(entry_point) == len(point) and _point_distance(entry_point, point) <= MERGE_TOL:
                return value
        raise SymbolUndefinedAtAtom(f"symbol table has no entry at {point}")


ONE = Symbol.constant(1)


def symbol_values(symbol, points) -> np.ndarray:
    """Vector of symbol values at the given points (F == 1 when symbol is None)."""
    if symbol is None:
        return np.ones(len(points), dtype=complex)
    return np.array([symbol.at(p) for p in points], dtype=complex)


def total_mass(mu: AtomicMeasure) -> complex:
    return complex(sum(mu.weights))


def total_variation(mu: AtomicMeasure) -> AtomicMeasure:
    """The measure with weights |w|; atoms of weight zero are dropped."""
    kept = [(p, abs(w)) for p, w in mu.atoms if w != 0]
    if not kept:
        raise ValueError("the zero measure has an empty total variation")
    return AtomicMeasure(mu.semigroup, tuple(kept))


def polar_density(mu: AtomicMeasure) -> dict:
    """Unimodular density h with mu = h * |mu|, as a point -> phase table."""
    density = {}
    for point, weight in mu.atoms:
        if weight == 0:
            raise ZeroWeightAtom(f"atom at {point} has zero weight")
        density[point] = weight / abs(weight)
    return density


def apply_symbol(mu: AtomicMeasure, symbol: Symbol, mode: str = MODE_F) -> AtomicMeasure:
    """Reweight atoms by F, conj(F) or |F|^2; zero-weight atoms are retained."""
    if mode not in (MODE_F, MODE_CONJ_F, MODE_ABS_F_SQ):
        raise ValueError(f"unknown symbol mode {mode!r}")
    atoms = []
    for point, weight in mu.atoms:
        value = symbol.at(point) if symbol is not None else 1 + 0j
        if mode == MODE_CONJ_F:
            value = value.conjugate()
        elif mode == MODE_ABS_F_SQ:
            value = abs(value) ** 2
        atoms.append((point, weight * value))
    return AtomicMeasure(mu.semigroup, tuple(atoms))


def sup_norm(mu: AtomicMeasure, element) -> float:
    """Largest character magnitude |rho(element)| over the support of mu."""
    return max(abs(char_eval(mu.semigroup, p, element)) for p in mu.points)
