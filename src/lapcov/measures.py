"""Atomic complex measures on character space, and the symbols weighting them."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericOverflow, SymbolUndefinedAtAtom, ZeroWeightAtom
from .semigroups import Semigroup, char_eval, monomial, points_fit, validate_point

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


# Width of the gap in the first real coordinate that separates clusters.  Two
# points within MERGE_TOL differ there by at most MERGE_TOL; the wider gap
# keeps rounding from splitting them, and the distance test still decides.
_MERGE_WINDOW = 2 * MERGE_TOL


def _within_tol(points: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Which rows of ``points`` lie within ``MERGE_TOL`` of ``point``, as ``_point_distance`` decides it.

    numpy's distance may differ from the scalar one in the last bits, so a
    row whose distance is within a relative 1e-9 of the tolerance is decided
    by ``_point_distance`` itself.
    """
    distance = np.sqrt((np.abs(points - point) ** 2).sum(axis=1))
    near = distance <= MERGE_TOL
    q = tuple(point.tolist())
    for i in np.flatnonzero(np.abs(distance - MERGE_TOL) <= 1e-9 * MERGE_TOL).tolist():
        near[i] = _point_distance(tuple(points[i].tolist()), q) <= MERGE_TOL
    return near


def merge_atoms(points: np.ndarray, weights: list, groups: np.ndarray = None) -> tuple:
    """Merge atoms whose points lie within ``MERGE_TOL``: (kept indices, their summed weights).

    ``points`` is a (k, d) complex array and ``weights`` a list of k complex.
    In input order, each atom joins the first kept point within ``MERGE_TOL``
    (its weight is added there, in input order) or is kept itself, so a chain
    of close atoms may merge into several.  Atoms of different ``groups``
    (nondecreasing ints; by default one group) never merge.  The kept indices
    come sorted by group, then by point as ``_point_sort_key`` orders them.
    Every coordinate is finite: measures refuse other points where they enter.

    Sorted by group and then by point, each group's first real coordinates
    are in order; they split into clusters wherever that coordinate jumps by
    more than ``_MERGE_WINDOW``.  Points within ``MERGE_TOL`` share a
    cluster, so only clusters of two or more need the input-order rule: a
    cluster's first atom is kept and claims every later one within reach,
    then the first atom left over is kept, and so on.  In a cluster whose
    points are all equal every atom joins the first: such clusters are found
    at once, and each adds its weights in one loop, with no distance test.
    """
    k = len(points)
    weights = list(weights)
    if k < 2:
        return list(range(k)), weights
    groups = np.zeros(k, dtype=np.int64) if groups is None else np.asarray(groups)
    columns = [part for z in points.T[::-1] for part in (z.imag, z.real)]
    order = np.lexsort(columns + [groups])
    key, group = points[order, 0].real, groups[order]
    kept = np.ones(k, dtype=bool)
    # Python's float arithmetic overflows to inf without a warning
    with np.errstate(over="ignore"):
        together = (np.diff(key) <= _MERGE_WINDOW) & (group[1:] == group[:-1])
        if together.any():
            starts = np.flatnonzero(np.r_[True, ~together])
            sizes = np.diff(np.r_[starts, k])
            # sorted atoms equal to their predecessor: equal points sort next to each other, and
            # lexsort is stable, so a cluster of equal points lists its atoms in input order
            repeats = np.r_[False, together & (points[order[1:]] == points[order[:-1]]).all(axis=1)]
            equal = (sizes > 1) & (np.add.reduceat(repeats, starts) == sizes - 1)
            listed = order.tolist()
            for start, stop in zip(starts[equal].tolist(), (starts + sizes)[equal].tolist()):
                q = listed[start]
                total = weights[q]
                for i in listed[start + 1 : stop]:
                    total += weights[i]
                weights[q] = total
            kept[order[np.repeat(equal, sizes) & repeats]] = False
            mixed = ~equal & (sizes > 1)
            for start, size in zip(starts[mixed].tolist(), sizes[mixed].tolist()):
                members = np.sort(order[start : start + size])
                while members.size > 1:
                    near = _within_tol(points[members], points[members[0]])
                    q, joined = int(members[0]), members[near][1:]
                    for i in joined.tolist():
                        weights[q] += weights[i]
                    kept[joined] = False
                    members = members[~near]
    keep = order[kept[order]].tolist()
    return keep, [weights[i] for i in keep]


_SCALARS = (int, float, complex)


def python_column(column) -> list:
    """A column's values as Python objects: a 2-d array's rows as tuples, a 1-d array's entries, a list as it is."""
    if not isinstance(column, np.ndarray):
        return column
    return list(map(tuple, column.tolist())) if column.ndim == 2 else column.tolist()


class Columns:
    """Rows held column by column, as numpy arrays or lists of one length.

    It reads as the sequence of its rows, each a tuple of ``python_column``
    values.  ``AtomicMeasure`` takes (points, weights) columns and
    ``DiscreteRandomVector`` (p, x, y) columns without converting each row
    again.
    """

    def __init__(self, *columns):
        if len(set(map(len, columns))) > 1:
            raise ValueError("columns must have one length")
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return zip(*map(python_column, self.columns))


def _atom_arrays(semigroup: Semigroup, atoms):
    """Points as a (k, d) complex array and weights as complex, normalized as ``validate_point`` and ``complex`` do.

    One numpy conversion reads every point (none for ``Columns``); when the
    result does not fit, the atoms go through ``validate_point`` one by one,
    which raises the first atom's error or normalizes what numpy could not
    read.
    """
    try:
        if isinstance(atoms, Columns):
            points, weights = atoms.columns
            points = np.asarray(points)
        else:
            points = np.array([(p,) if isinstance(p, _SCALARS) else p for p, _ in atoms])
            weights = [w for _, w in atoms]
        weights = list(map(complex, python_column(weights)))
    except (TypeError, ValueError, OverflowError):
        points = None
    if points is None or not points_fit(semigroup, points):
        normalized = [
            (validate_point(semigroup, (p,) if isinstance(p, _SCALARS) else p), complex(w)) for p, w in atoms
        ]
        points = np.array([p for p, _ in normalized], dtype=complex).reshape(len(atoms), semigroup.point_dim)
        weights = [w for _, w in normalized]
    return points.astype(complex, copy=False), weights


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many weighted atoms on the character space of ``semigroup``.

    ``atoms`` is a sequence of (point, weight) pairs, or ``Columns`` of a
    (k, d) point array and k weights.  Construction normalizes points, merges
    atoms closer than ``MERGE_TOL`` (weights summed), and sorts atoms for
    deterministic iteration.  A point or weight that is not finite, also
    after the merge, raises ValueError.  Atoms with zero weight are kept:
    they still belong to the support set used for sup-norms.  ``points``, ``weights`` and the read-only ``weight_array``
    are the merged atoms' points and weights, built once.
    """

    semigroup: Semigroup
    atoms: tuple
    points: tuple = field(init=False, repr=False, compare=False)
    weights: tuple = field(init=False, repr=False, compare=False)
    weight_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = self.atoms if isinstance(self.atoms, Columns) else tuple(self.atoms)
        if not atoms:
            raise ValueError("a measure needs at least one atom")
        points, weights = _atom_arrays(self.semigroup, atoms)
        keep, weights = merge_atoms(points, weights)
        points = tuple(map(tuple, points[keep].tolist()))
        weight_array = np.array(weights, dtype=complex)
        if not np.isfinite(weight_array).all():
            raise ValueError("atom weights must be finite, also once coincident atoms are summed")
        weight_array.flags.writeable = False
        object.__setattr__(self, "atoms", tuple(zip(points, weights)))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "weight_array", weight_array)


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


def symbol_values(symbol, points) -> np.ndarray:
    """Vector of symbol values at the given points (F == 1 when symbol is None).

    A value that overflows the float range raises NumericOverflow.
    """
    if symbol is None:
        return np.ones(len(points), dtype=complex)
    values = np.array([symbol.at(p) for p in points], dtype=complex)
    if not np.isfinite(values).all():
        raise NumericOverflow("a symbol value overflows the float range")
    return values


def charges(mu: AtomicMeasure, fv: np.ndarray, mode: str = MODE_F) -> np.ndarray:
    """The atom weights reweighted by F, conj F or |F|^2 (``mode``), from F's values ``fv``.

    A charge that overflows the float range raises NumericOverflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == MODE_CONJ_F:
            fv = np.conj(fv)
        elif mode == MODE_ABS_F_SQ:
            fv = np.abs(fv) ** 2
        elif mode != MODE_F:
            raise ValueError(f"unknown symbol mode {mode!r}")
        return finite_charges(mu.weight_array * fv)


def finite_charges(values):
    """``values``; NumericOverflow when one of these symbol-weighted weights is not finite."""
    if not np.isfinite(values).all():
        raise NumericOverflow("a symbol-weighted atom overflows the float range")
    return values


def negligible(value, scale, tol: float):
    """Whether |value| <= tol * scale: the one rule by which a verdict gate or rank count calls a value zero.

    Builtin ``abs``, so a scalar gate makes no numpy call and an array is
    compared elementwise.  Against a zero scale only an exact 0 is
    negligible; a NaN never is.
    """
    return abs(value) <= tol * scale


def total_mass(mu: AtomicMeasure) -> complex:
    return complex(sum(mu.weights))


def weight_scale(mu: AtomicMeasure) -> float:
    """sum_k |w_k|, the scale a vanishing total mass is judged against."""
    return float(np.abs(mu.weight_array).sum())


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
    """Reweight atoms by F, conj(F) or |F|^2 (the ``charges``); zero-weight atoms are retained."""
    weights = charges(mu, symbol_values(symbol, mu.points), mode)
    return AtomicMeasure(mu.semigroup, Columns(np.array(mu.points), weights))


def sup_norm(mu: AtomicMeasure, element) -> float:
    """Largest character magnitude |rho(element)| over the support of mu."""
    return max(abs(char_eval(mu.semigroup, p, element)) for p in mu.points)
