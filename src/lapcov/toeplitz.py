"""Disc measures, moment / Toeplitz matrices, numerical rank, and pencil recovery.

Every probe element s of a measure mu induces a measure on the closed disc of
radius 1/2: the atom z_k moves to rho_{z_k}(s) / (2 (1 + sup-norm)) with weight
|F(z_k)|^2 w_k.  When mu satisfies the covariance equation these disc measures
are single Dirac masses, which is checked two ways: a second-singular-value
test on the induced Toeplitz matrix, and atom recovery from the moment-matrix
pencil, each reading ranks from one SVD of its matrix.  Recovered atoms map
back to character values, the independent cross-check of the transform
route: ``prony`` multiplies by the disc measure's own ``DiscMeasure.scale``,
and ``character_value_from_atom`` recomputes that factor from mu.

A grid is handled as stacks: ``disc_measures`` reads one character matrix and
one vector of symbol values for all elements, ``moment_matrices`` builds one
Vandermonde stack and one stacked matmul per atom count,
``toeplitz_matrix`` and ``np.linalg.svd`` take the whole stack, and
``prony_pencils`` takes one SVD for every pencil, then one ``eigvals`` and one
stacked least-squares solve of the atom weights per rank.  Each element's
matrices, singular values, pencil eigenvalues and weights are byte-equal to
building them one at a time.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericOverflow, RankDeficientPencil
from .laplace import Tolerances
from .measures import AtomicMeasure, Symbol, finite_charges, merge_atoms, negligible, sup_norm, symbol_values
from .semigroups import _check_entries, character_matrix, element_exponents

DISC_RADIUS = 0.5
_DISC_TOL = 1e-12

DEFAULT_MATRIX_ORDER = 12
DEFAULT_RANK_TOL = Tolerances.rank


@dataclass(frozen=True)
class DiscMeasure:
    """Atomic measure supported in the closed disc of radius 1/2.

    Coincident positions (within ``MERGE_TOL``) are merged with summed
    weights by ``merge_atoms``; positions outside the disc or not finite,
    and weights that are not finite, are rejected.
    ``scale`` is the factor 2 (1 + sup-norm) that ``disc_measures`` divided
    the character values by, so a position times it is a character value.
    """

    atoms: tuple
    scale: float = field(default=None, compare=False)

    def __post_init__(self):
        atoms = [(complex(a), complex(m)) for a, m in self.atoms]
        for a, _ in atoms:
            if not abs(a) <= DISC_RADIUS + _DISC_TOL:  # NaN is not inside
                raise ValueError(f"disc atom {a} lies outside radius {DISC_RADIUS}")
        positions = np.array([a for a, _ in atoms], dtype=complex).reshape(-1, 1)
        keep, weights = merge_atoms(positions, [m for _, m in atoms])
        if not np.isfinite(weights).all():
            raise ValueError("disc atom weights must be finite, also once coincident atoms are summed")
        object.__setattr__(self, "atoms", tuple(zip([atoms[i][0] for i in keep], weights)))

    @classmethod
    def _merged(cls, atoms: tuple, scale: float) -> "DiscMeasure":
        """A disc measure of atoms that ``merge_atoms`` has already merged and sorted."""
        nu = object.__new__(cls)
        object.__setattr__(nu, "atoms", atoms)
        object.__setattr__(nu, "scale", scale)
        return nu

    @property
    def positions(self) -> tuple:
        return tuple(a for a, _ in self.atoms)

    @property
    def weights(self) -> tuple:
        return tuple(m for _, m in self.atoms)

    @property
    def mass(self) -> complex:
        return complex(sum(self.weights))


def disc_measures(mu: AtomicMeasure, symbol: Symbol, exponents) -> list:
    """The disc measures induced by probing mu at each element of an exponent array, in order.

    ``exponents`` is a grid's ``exponents``, or ``element_exponents`` of any
    elements.  One ``merge_atoms`` call merges every element's atoms, each
    element a group of its own.  The positions lie inside the disc by
    construction: |rho| / (2 (1 + max |rho|)) < 1/2.
    """
    values = character_matrix(mu.semigroup, mu.points, exponents)
    # each column is char_eval's bit for bit, so Python's abs gives sup_norm exactly
    scales = [2.0 * (1.0 + max(map(abs, column))) for column in values.T.tolist()]
    fv = symbol_values(symbol, mu.points)
    # scalar |F|^2: numpy's array abs and square can differ from it in the last bit
    with np.errstate(over="ignore", invalid="ignore"):
        weights = finite_charges([(abs(fv[k]) ** 2) * w for k, w in enumerate(mu.weights)])
    positions = (values / np.array(scales)).T
    n, k = positions.shape
    keep, merged = merge_atoms(positions.reshape(n * k, 1), weights * n, np.repeat(np.arange(n), k))
    flat = positions.ravel().tolist()
    bounds = np.searchsorted(np.array(keep, dtype=np.int64) // k, np.arange(n + 1)).tolist()
    return [
        DiscMeasure._merged(tuple(zip([flat[i] for i in keep[a:b]], merged[a:b])), scale)
        for a, b, scale in zip(bounds, bounds[1:], scales)
    ]


def disc_measure(mu: AtomicMeasure, symbol: Symbol, s) -> DiscMeasure:
    """The disc measure induced by probing mu at element s."""
    return disc_measures(mu, symbol, element_exponents(mu.semigroup, (s,)))[0]


def _power_columns(positions, rows: int) -> np.ndarray:
    """Vandermonde-style stack V[..., j, i] = positions[..., i] ** j, shape (..., rows, n)."""
    positions = np.asarray(positions, dtype=complex)
    V = np.ones(positions.shape[:-1] + (rows, positions.shape[-1]), dtype=complex)
    for j in range(1, rows):
        V[..., j, :] = V[..., j - 1, :] * positions
    return V


def moment_matrices(nus, order: int, rows: int = None) -> np.ndarray:
    """Stacked mixed moments M[i, j, k] = sum_a m_a a^j conj(a)^k over the atoms of nus[i].

    The shape is (len(nus), rows, order); ``rows`` (default ``order``) allows
    the extra shifted row needed by the pencil recovery.  Measures with the
    same atom count share one Vandermonde stack and one stacked matmul, so
    every matrix is byte-equal to building it alone.  A stack too large to
    hold raises GridTooLarge before any of it is built.  Finite weights can
    still overflow in their sums: this function owns the finiteness check of
    the moment stack, which ``np.linalg.svd`` and ``prony_pencils`` read, and
    raises NumericOverflow on a stack that is not finite.
    """
    if order < 1:
        raise ValueError("matrix order must be >= 1")
    rows = order if rows is None else rows
    _check_entries(len(nus) * rows * order, f"a moment stack of {len(nus)} matrices of {rows} x {order}")
    groups = {}
    for i, nu in enumerate(nus):
        groups.setdefault(len(nu.atoms), []).append(i)
    out = np.empty((len(nus), rows, order), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for index in groups.values():
            V = _power_columns([nus[i].positions for i in index], max(rows, order))
            weights = np.array([nus[i].weights for i in index], dtype=complex)
            out[index] = (V[:, :rows] * weights[:, None, :]) @ V[:, :order].conj().transpose(0, 2, 1)
    # LAPACK's SVD fails on a NaN, or never ends
    if not np.isfinite(out).all():
        raise NumericOverflow("a moment matrix overflows the float range")
    return out


def moment_matrix(nu: DiscMeasure, order: int, rows: int = None) -> np.ndarray:
    """Matrix of mixed moments M[j, k] = sum_i m_i a_i^j conj(a_i)^k, shape (rows, order)."""
    return moment_matrices((nu,), order, rows)[0]


def toeplitz_matrix(moments: np.ndarray) -> np.ndarray:
    """Matrices of the induced Bergman-space Toeplitz operators, from square moment matrices.

    ``moments`` is one (order, order) moment matrix or a stack of them.  In
    the orthonormal monomial basis e_j = sqrt((j+1)/pi) z^j the entries are
    T[j, k] = sqrt((j+1)(k+1))/pi * sum_i m_i a_i^k conj(a_i)^j = sqrt((j+1)(k+1))/pi * M[k, j],
    so T[0, 0] = nu(disc) / pi.  Finite moments can overflow in T: this
    function owns the finiteness check of the Toeplitz stack, which the
    ``toeplitz`` command hands to ``np.linalg.svd``, and raises
    NumericOverflow on a stack that is not finite.
    """
    j = np.arange(1, moments.shape[-1] + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.sqrt(np.outer(j, j)) / math.pi * np.swapaxes(moments, -1, -2)
    if not np.isfinite(out).all():
        raise NumericOverflow("a Toeplitz matrix overflows the float range or is not a number")
    return out


def _ranks(sigmas: np.ndarray, rel_tol: float):
    """Per descending singular-value profile of a stack, the count of its values not negligible against its first."""
    return (~negligible(sigmas, sigmas[..., :1], rel_tol)).sum(axis=-1)


def numerical_rank(matrix: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rel_tol times the largest (0 for the zero matrix).

    A matrix with an entry that is not finite raises ValueError before it reaches LAPACK.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if not np.isfinite(matrix).all():
        raise ValueError("matrix entries must be finite")
    return int(_ranks(np.linalg.svd(matrix, compute_uv=False), rel_tol))


class LueckingResult(NamedTuple):
    rank: int
    atom_count: int
    agree: bool


def luecking_check(nu: DiscMeasure, rank: int) -> LueckingResult:
    """Finite-rank check: moment-matrix rank vs. number of charged atoms.

    ``rank`` is the numerical rank of nu's moment matrix (``numerical_rank``,
    or ``_ranks`` over a stack of singular values).  Luecking's theorem says
    the two agree for any finitely supported disc measure once the matrix
    order exceeds the support size.  Clustered atoms degrade the rank
    estimate; the caller sees the disagreement rather than a silently
    adjusted count.
    """
    atom_count = sum(1 for m in nu.weights if m != 0)
    return LueckingResult(rank, atom_count, rank == atom_count)


def rank_one_check(sigma) -> float:
    """sigma_2 / sigma_1 of a descending singular-value profile (0 if sigma_1 = 0 or it has one value).

    On induced Toeplitz matrices it is ~0 when mu satisfies the covariance equation (rank one).
    """
    if sigma[0] == 0.0 or len(sigma) < 2:
        return 0.0
    return float(sigma[1] / sigma[0])


class PronyResult(NamedTuple):
    atoms: tuple            # ((position, weight), ...)
    residual: float         # relative Frobenius reconstruction error
    rank: int


class Pencil(NamedTuple):
    """One moment table's entry of ``prony_pencils``: everything ``prony_recover`` reads but the table.

    A rank-0 table has empty positions and weights and residual 0.  When
    ``error`` is set, ``prony_recover`` raises it and reads nothing else.
    """

    rank: int               # numerical rank of the unshifted block
    positions: np.ndarray   # pencil eigenvalues, in LAPACK's order
    weights: np.ndarray     # least-squares weights against the full table, in the order of positions
    residual: float         # Frobenius norm of the reconstruction misfit over the table's (0 for a zero table)
    error: Exception        # what prony_recover raises for this table, or None


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


# the stacked least-squares gufunc np.linalg.lstsq calls; numpy 1.x splits it by
# shape, and a Prony design (rows * cols equations, at most cols unknowns) is tall
_LSTSQ = getattr(_umath_linalg, "lstsq", None) or _umath_linalg.lstsq_n


def _lstsq_weights(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(design[i], rhs[i], rcond=None)[0] for each (m, n) design of a stack, m > n."""
    rcond = np.finfo(float).eps * design.shape[-2]
    with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _LSTSQ(design, rhs[..., None], rcond, signature="DDd->Ddid")[0][..., 0]


def _norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a complex (n, m) stack, bit for bit.

    That is sqrt(x . x + y . y) for the real part x and imaginary part y,
    each dot taken as a stacked (1, m) @ (m, 1) matmul, which gives the bits
    of the dot ``np.linalg.norm`` takes on one vector.
    """
    x, y = rows.real[..., None], rows.imag[..., None]
    return np.sqrt((x.transpose(0, 2, 1) @ x)[:, 0, 0] + (y.transpose(0, 2, 1) @ y)[:, 0, 0])


def prony_pencils(tables: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> list:
    """The Hua-Sarkar pencil and least-squares weights of each moment table in a (n, rows, cols) stack, in order.

    One SVD takes every unshifted block ``tables[:, :-1, :]``; the ranks r
    and the singular flags of all tables are read from its singular values
    with array ops.  Since Ur^H unshifted Vr = diag(sigma_1..sigma_r), the
    restricted pencil is the standard eigenproblem of (Ur^H shifted Vr) /
    sigma, and tables of equal rank share one matmul and one ``eigvals``.
    They also share one Vandermonde stack, one design stack and one call of
    the stacked least-squares gufunc behind ``np.linalg.lstsq``; one batched
    matmul gives their misfits, and stacked dots the misfits' and the tables'
    norms, hence the residuals.  Per table only the ``Pencil`` is built.
    Each pencil is byte-equal to solving its table alone.  A rank group's
    design stack too large to hold raises GridTooLarge before it is built.
    Nothing else is raised: a pencil that is singular beyond tolerance or has
    non-finite eigenvalues (RankDeficientPencil), whose restricted pencil or
    design overflows (NumericOverflow; neither reaches LAPACK), whose
    least-squares solve does not converge (LinAlgError), or whose table or
    misfit norm overflows (NumericOverflow) carries the exception in ``error``.
    ``tables`` must be finite, since LAPACK's SVD may never end on a NaN:
    ``moment_matrices`` checks the stacks it builds, and ``prony_recover`` a
    table it is handed without a pencil.
    """
    tables = np.asarray(tables, dtype=complex)
    n, rows, cols = tables.shape
    U, sigmas, Vh = np.linalg.svd(tables[:, :-1, :])
    pencils = [Pencil(0, np.empty(0, dtype=complex), np.empty(0, dtype=complex), 0.0, None)] * n
    # sigma is descending, so sigma[rank - 1] is negligible at 1e-13 (a singular pencil)
    # where fewer values than the rank are not
    ranks = _ranks(sigmas, rel_tol)
    singular = (_ranks(sigmas, 1e-13) < ranks).tolist()
    groups = {}
    for i, rank in enumerate(ranks.tolist()):
        if singular[i]:
            error = RankDeficientPencil("restricted moment pencil is numerically singular")
            pencils[i] = Pencil(rank, None, None, None, error)
        elif rank:
            groups.setdefault(rank, []).append(i)
    for rank, index in groups.items():
        Ur = U[index, :, :rank]
        Vr = Vh[index, :rank, :].conj().transpose(0, 2, 1)
        # a finite table can still overflow in its restriction; eigvals must not see it
        with np.errstate(over="ignore", invalid="ignore"):
            restricted = Ur.conj().transpose(0, 2, 1) @ tables[index, 1:, :] @ Vr / sigmas[index, :rank, None]
        index = np.asarray(index)
        bounded = np.isfinite(restricted).all(axis=(1, 2))
        for i in index[~bounded].tolist():
            pencils[i] = Pencil(rank, None, None, None, NumericOverflow("a restricted pencil overflows the float range"))
        index, restricted = index[bounded], restricted[bounded]
        positions = np.linalg.eigvals(restricted)
        finite = np.isfinite(positions).all(axis=1)
        for i in index[~finite].tolist():
            pencils[i] = Pencil(rank, None, None, None, RankDeficientPencil("pencil eigenvalues are not finite"))
        index, positions = index[finite], positions[finite]
        _check_entries(
            len(index) * rows * cols * rank, f"a Prony design stack of {len(index)} designs of {rows * cols} x {rank}"
        )
        # the powers of a position far outside the disc can overflow; LAPACK must not see them
        with np.errstate(over="ignore", invalid="ignore"):
            V = _power_columns(positions, rows)
            design = (V[:, :, None, :] * V[:, None, :cols].conj()).reshape(len(index), rows * cols, rank)
        bounded = np.isfinite(design).all(axis=(1, 2))
        for i in index[~bounded].tolist():
            pencils[i] = Pencil(rank, None, None, None, NumericOverflow("a Prony design overflows the float range"))
        index, positions, design = index[bounded].tolist(), positions[bounded], design[bounded]
        rhs = tables[index].reshape(len(index), rows * cols)
        errors = [None] * len(index)
        try:
            weights = _lstsq_weights(design, rhs)
        except np.linalg.LinAlgError:
            # solve the tables one at a time, so each failure is raised by its own element
            weights = np.full((len(index), rank), np.nan, dtype=complex)
            for j in range(len(index)):
                try:
                    weights[j] = _lstsq_weights(design[j], rhs[j])
                except np.linalg.LinAlgError as exc:
                    errors[j] = exc
        # finite moments can overflow in the squares of the norms
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            misfits, norms = _norms((design @ weights[..., None])[..., 0] - rhs), _norms(rhs)
            residuals = np.where(norms > 0, misfits / norms, 0.0).tolist()
        for j in np.flatnonzero(~(np.isfinite(misfits) & np.isfinite(norms))).tolist():
            errors[j] = errors[j] or NumericOverflow("a moment table's norm overflows the float range")
        for j, i in enumerate(index):
            pencils[i] = Pencil(rank, positions[j], weights[j], residuals[j], errors[j])
    return pencils


def prony_recover(table, rel_tol: float = DEFAULT_RANK_TOL, pencil: Pencil = None) -> PronyResult:
    """Recover the atoms of a disc measure from its moment table by a matrix pencil.

    ``table`` is a complex moment table with at least one more row than
    columns, laid out as M[j, k] = sum_i m_i a_i^j conj(a_i)^k, such as
    ``moment_matrix(nu, k, rows=k + 1)``.  The estimated rank r is the
    numerical rank of the unshifted block; positions are the eigenvalues of
    the row-shifted pencil restricted to the dominant r-dimensional singular
    subspace (Hua & Sarkar's matrix pencil), and weights follow by least
    squares against the full moment table.  ``pencil`` is the table's entry
    from ``prony_pencils``, which holds the positions, weights and residual;
    when it is omitted, ``prony_pencils`` is called on the table alone with
    ``rel_tol``.  What is left here is the sort of the atoms.

    Raises RankDeficientPencil when the restricted pencil is singular beyond
    tolerance (possible for user-supplied moment tables of inconsistent rank),
    NumericOverflow when the weights' design or a norm overflows, and numpy's
    LinAlgError when the least-squares solve does not converge.
    """
    table = np.asarray(table, dtype=complex)
    if table.ndim != 2 or table.shape[0] < table.shape[1] + 1 or table.shape[1] < 1:
        raise ValueError("moment table must have shape (n+1, n) or larger")
    if pencil is None:
        if not np.isfinite(table).all():
            raise ValueError("moment table entries must be finite")
        pencil = prony_pencils(table[None], rel_tol)[0]
    if pencil.error is not None:
        raise pencil.error
    atoms = sorted(zip(pencil.positions.tolist(), pencil.weights.tolist()), key=lambda am: (am[0].real, am[0].imag))
    return PronyResult(tuple(atoms), pencil.residual, pencil.rank)


def character_value_from_atom(mu: AtomicMeasure, s, position: complex) -> complex:
    """Undo the disc rescaling: candidate character value 2 (1 + sup-norm) * position."""
    return 2.0 * (1.0 + sup_norm(mu, s)) * position
