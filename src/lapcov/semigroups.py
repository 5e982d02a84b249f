"""The three built-in commutative semigroups and their character evaluations.

Elements and character points are plain hashable Python values; a grid of
elements is also held as one exponent array, whose row for an element s is
the exponent of s in rho_z(s) = z^row (``element_exponents``):

===========  =========================  ==============================  ==============================
family       element                    exponent row                    character point
===========  =========================  ==============================  ==============================
nat_add      tuple of ints, length d    the coordinates (int64, d)      tuple of complex, length d
nat_mult     positive int               kappa(n): prime exponents (L)   tuple of complex, length L
half_line    float >= 0                 the float itself                1-tuple (z,) with Re z >= 0
===========  =========================  ==============================  ==============================

So both integer families are the same problem in exponent space: a
nat_mult product is a sum of exponent rows, as in nat_add.  A list of
elements reaches exponent space one way, one check per element
(``validate_element``, or one ``kappa`` call for nat_mult); default grids
start there and are never factored.  The closure of an element list is
found by sorting its pairwise products (``closure_table``); a default
grid's is the box of twice its order, written down in closed form
(``box_closure``).  Tables over pairs of elements, and the
Toeplitz route's moment and design stacks, are bounded by ``_MAX_PAIR_ENTRIES``.
Characters are evaluated with the convention 0**0 = 1, so every character
takes the value 1 at the identity.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridTooLarge, NumericOverflow, PrimeOutOfRange

NAT_ADD = "nat_add"
NAT_MULT = "nat_mult"
HALF_LINE = "half_line"

# nat_mult elements beyond this are rejected instead of silently growing.
_INT_LIMIT = 2**62

# slack when checking Re z >= 0 on the half-line
_HALF_PLANE_TOL = 1e-12

# Tables over pairs of grid or closure elements, moment stacks and Prony
# design stacks are refused past this many entries (64 MB as complex), ~8x
# the largest pair domain the benchmark uses: the 729 x 729 closure pairs of a
# nat_mult order-4 pd, which evaluates only the pairs it probes.
_MAX_PAIR_ENTRIES = 2**22


@dataclass(frozen=True)
class Semigroup:
    """A semigroup family tag plus its size parameter.

    ``dim`` is the multi-index length for ``nat_add``, the number of retained
    primes for ``nat_mult``, and is fixed to 1 for ``half_line``.
    """

    family: str
    dim: int = 1

    def __post_init__(self):
        if self.family not in (NAT_ADD, NAT_MULT, HALF_LINE):
            raise ValueError(f"unknown semigroup family {self.family!r}")
        if self.dim < 1:
            raise ValueError("semigroup dimension must be >= 1")
        if self.family == HALF_LINE and self.dim != 1:
            raise ValueError("half_line has no dimension parameter")

    @classmethod
    def nat_add(cls, d: int) -> "Semigroup":
        return cls(NAT_ADD, d)

    @classmethod
    def nat_mult(cls, primes: int) -> "Semigroup":
        return cls(NAT_MULT, primes)

    @classmethod
    def half_line(cls) -> "Semigroup":
        return cls(HALF_LINE, 1)

    @property
    def point_dim(self) -> int:
        """Length of a character-point vector."""
        return self.dim


@lru_cache(maxsize=None)
def first_primes(count: int) -> tuple:
    """The first ``count`` primes, by trial division (desk scale)."""
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return tuple(primes)


def identity(semigroup: Semigroup):
    """Neutral element of the semigroup."""
    if semigroup.family == NAT_ADD:
        return (0,) * semigroup.dim
    if semigroup.family == NAT_MULT:
        return 1
    return 0.0


def combine(semigroup: Semigroup, a, b):
    """Semigroup operation: componentwise sum, integer product, or real sum."""
    if semigroup.family == NAT_ADD:
        return tuple(x + y for x, y in zip(a, b))
    if semigroup.family == NAT_MULT:
        product = a * b
        if product > _INT_LIMIT:
            raise GridTooLarge(f"product {a}*{b} exceeds the supported range")
        return product
    return a + b


def _sort_keys(semigroup: Semigroup, rows: np.ndarray) -> np.ndarray:
    """One key per exponent row, in the order of the elements, that the semigroup operation adds or multiplies.

    A mixed-radix code for nat_add (coordinate c has radix 2 * max_c + 1, so
    the codes of two rows add without carries), the integer value for
    nat_mult, the real itself for half_line.  Rows whose pairwise keys could
    pass 2**62 raise GridTooLarge instead of wrapping around in int64, and
    half_line reals whose pairwise sums could overflow the float range raise
    it instead of summing to inf.  For nat_mult that is the rule
    top * top <= 2**62 on the largest element top; when the product of the
    largest exponents could break it, top is computed from the rows in
    Python ints, since ``element_labels`` wraps around past int64.
    """
    if semigroup.family == NAT_ADD:
        radices = [2 * top + 1 for top in rows.max(axis=0, initial=0).tolist()]
        if math.prod(radices) > _INT_LIMIT:
            raise GridTooLarge("nat_add grid coordinates exceed the supported range")
        return rows @ np.array([math.prod(radices[c + 1 :]) for c in range(len(radices))], dtype=np.int64)
    if semigroup.family == NAT_MULT:
        primes = first_primes(semigroup.dim)
        if math.prod(map(pow, primes, rows.max(axis=0, initial=0).tolist())) ** 2 > _INT_LIMIT:
            top = max(math.prod(map(pow, primes, row)) for row in rows.tolist())
            if top * top > _INT_LIMIT:
                raise GridTooLarge(f"product {top}*{top} exceeds the supported range")
        return element_labels(semigroup, rows)
    if not math.isfinite(2 * float(rows.max(initial=0.0))):
        raise GridTooLarge("half_line grid elements exceed the supported range")
    return rows


def _check_pairs(count: int, what: str):
    """Raise GridTooLarge when ``what`` has too many elements for a table over its pairs."""
    if count * count > _MAX_PAIR_ENTRIES:
        raise GridTooLarge(
            f"{what} of {count} elements has {count * count} pairs, more than the supported {_MAX_PAIR_ENTRIES}"
        )


def _check_entries(count: int, what: str):
    """Raise GridTooLarge when ``what`` would hold more than ``_MAX_PAIR_ENTRIES`` entries."""
    if count > _MAX_PAIR_ENTRIES:
        raise GridTooLarge(f"{what} has {count} entries, more than the supported {_MAX_PAIR_ENTRIES}")


def closure_table(semigroup: Semigroup, rows: np.ndarray):
    """The distinct elements of exponent ``rows`` and their pairwise products, in exponent space.

    ``rows`` may come in any order and repeat.  Returns ``(elements,
    closure, products)``: the distinct rows and the rows of their pairwise
    products, each sorted by element (by integer value for nat_mult), and the
    (n, n) index table with ``closure[products[i, j]]`` equal to
    ``elements[i] + elements[j]``, the exponent of the product.  No element
    is factored: equal sort keys have equal rows, so any pair with a key
    gives its row.  Element lists take this path; a default grid's box takes
    ``box_closure``, which returns the same arrays without the sort over the
    n^2 pair keys, and the tests hold the two equal.
    """
    keys, first = np.unique(_sort_keys(semigroup, rows), return_index=True)
    _check_pairs(len(keys), "a grid")
    rows = rows[first]
    n = len(rows)
    pair_keys = (np.multiply if semigroup.family == NAT_MULT else np.add).outer(keys, keys)
    unique, first, inverse = np.unique(pair_keys.ravel(), return_index=True, return_inverse=True)
    closure = unique if semigroup.family == HALF_LINE else rows[first // n] + rows[first % n]
    return rows, closure, inverse.reshape(n, n)


def _box(top: int, dim: int) -> np.ndarray:
    """The exponent rows {0..top}^dim in lexicographic order, shape ((top + 1)**dim, dim) int64."""
    return np.ascontiguousarray(np.indices((top + 1,) * dim, dtype=np.int64).reshape(dim, -1).T)


def box_closure(semigroup: Semigroup, top: int):
    """``closure_table`` of a default grid's box, in closed form: no sort over pairs.

    The box is the exponent rows {0..top}^d (the reals 0.25 * {0..top} on the
    half-line) and its closure is the box {0..2 top}^d.  A row's mixed-radix
    code in radix 2 top + 1 is its index in the closure box in lexicographic
    order, so two rows' codes add to their product's index.  nat_add keeps
    both boxes in lexicographic order, which is their order by element;
    nat_mult sorts each box by integer value and maps a code to its rank; on
    the half-line the indices are the multiples of 0.25 themselves, and their
    sums are exact.  The element rows pass ``_sort_keys``, so a box out of
    range raises what ``closure_table`` raises on them; the pair count is the
    caller's to check.  Returns what ``closure_table`` returns on the box's
    rows, equal in value and dtype.
    """
    if semigroup.family == HALF_LINE:
        index = np.arange(top + 1)
        rows = _sort_keys(semigroup, 0.25 * index)
        return rows, 0.25 * np.arange(2 * top + 1), np.add.outer(index, index)
    rows = _box(top, semigroup.dim)
    keys = _sort_keys(semigroup, rows)
    closure = _box(2 * top, semigroup.dim)
    if semigroup.family == NAT_ADD:  # the keys are the codes
        return rows, closure, np.add.outer(keys, keys)
    order, closure_order = np.argsort(keys), np.argsort(element_labels(semigroup, closure))
    rank = np.empty_like(closure_order)
    rank[closure_order] = np.arange(len(closure_order))
    codes = rows[order] @ (2 * top + 1) ** np.arange(semigroup.dim - 1, -1, -1)
    return rows[order], closure[closure_order], rank[np.add.outer(codes, codes)]


def element_labels(semigroup: Semigroup, rows: np.ndarray) -> np.ndarray:
    """The elements of exponent ``rows`` as one array: nat_add coordinates, nat_mult integers, half_line reals."""
    if semigroup.family == NAT_MULT:
        return np.prod(np.array(first_primes(semigroup.dim), dtype=np.int64) ** rows, axis=1)
    return rows


def element_exponents(semigroup: Semigroup, elements) -> np.ndarray:
    """The exponent array of ``elements`` (see the module table), each checked as ``validate_element`` checks it.

    Shape (n, d) int64 for nat_add and nat_mult, (n,) float for half_line;
    -0.0 becomes 0.0.  The first bad element raises its ``validate_element``
    error; a nat_mult element is read by ``_integer`` and one ``kappa`` call,
    which raise what ``validate_element`` raises and give the row.  Exponents
    past the int64 range raise GridTooLarge.  Only element lists come here:
    ``default_grid`` builds its rows in exponent space.
    """
    if semigroup.family == NAT_MULT:
        canonical = [kappa(_integer(el), semigroup.dim) for el in elements]
    else:
        canonical = [validate_element(semigroup, el) for el in elements]
    if semigroup.family == HALF_LINE:
        return np.array(canonical, dtype=float) + 0.0
    try:
        return np.array(canonical, dtype=np.int64).reshape(len(canonical), semigroup.dim)
    except OverflowError:
        raise GridTooLarge(f"{semigroup.family} grid coordinates exceed the supported range") from None


def kappa(n: int, retained_primes: int) -> tuple:
    """Prime-exponent vector of ``n`` over the first ``retained_primes`` primes.

    Raises PrimeOutOfRange when ``n`` has a prime factor beyond the retained
    list (including factors larger than the last retained prime).
    """
    if n < 1:
        raise ValueError("nat_mult elements are positive integers")
    exponents = []
    remainder = n
    for p in first_primes(retained_primes):
        e = 0
        while remainder % p == 0:
            remainder //= p
            e += 1
        exponents.append(e)
    if remainder != 1:
        raise PrimeOutOfRange(
            f"{n} has prime factor(s) outside the first {retained_primes} primes"
        )
    return tuple(exponents)


def monomial(point, exponents, value=1 + 0j) -> complex:
    """``value * z_1**e_1 * ... * z_d**e_d``, multiplied left to right.

    The one scalar monomial of the package (characters, polynomial symbols,
    kernels, random-vector moments); 0**0 == 1 is guaranteed by Python's
    complex power.  A power that overflows raises NumericOverflow.
    """
    try:
        for z, e in zip(point, exponents):
            value *= complex(z) ** int(e)
    except OverflowError:
        raise NumericOverflow(f"{z!r} ** {e!r} overflows the float range") from None
    return value


def char_eval(semigroup: Semigroup, point, element) -> complex:
    """Value at ``element`` of the character labelled by ``point``."""
    if semigroup.family == NAT_ADD:
        return monomial(point, element)
    if semigroup.family == NAT_MULT:
        return monomial(point, kappa(element, semigroup.dim))
    return cmath.exp(-element * complex(point[0]))


def complex_product(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) in real arithmetic, in the order Python's complex product uses.

    numpy's complex multiply rounds differently depending on array layout;
    spelled out in real arithmetic, a product does not depend on the shape
    of the arrays it is computed in.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _character_loop(semigroup: Semigroup, points, exponents: np.ndarray) -> np.ndarray:
    out = np.empty((len(points), len(exponents)), dtype=complex)
    rows = exponents.tolist()
    for k, z in enumerate(points):
        if semigroup.family == HALF_LINE:
            z = complex(z[0])
            out[k] = [cmath.exp(-s * z) for s in rows]
        else:
            out[k] = [monomial(z, row) for row in rows]
    return out


def _power_table(z: np.ndarray, top: int):
    """(re, im) of z[k] ** e for e = 0..top, shape (len(z), top + 1), as Python computes them.

    CPython's integer complex power (``c_powu``) starts from 1+0j and, for
    each set bit b of the exponent from the lowest up, multiplies by
    p_b = z ** 2**b, where p_{b+1} = p_b * p_b.  So z**e is z**(e - 2**b)
    times p_b for the top bit b of e, and each column block [2**b, 2**(b+1))
    is one product of the block before it with p_b.
    """
    re = np.empty((len(z), top + 1))
    im = np.empty((len(z), top + 1))
    re[:, 0], im[:, 0] = 1.0, 0.0
    p_re, p_im = z.real[:, None], z.imag[:, None]
    width = 1
    while width <= top:
        stop = min(2 * width, top + 1)
        re[:, width:stop], im[:, width:stop] = complex_product(
            re[:, : stop - width], im[:, : stop - width], p_re, p_im
        )
        p_re, p_im = complex_product(p_re, p_im, p_re, p_im)
        width *= 2
    return re, im


# Python's complex ** int takes the repeated-squaring route only up to this
# exponent and exp/log beyond it; larger exponents use the scalar loop.
_MAX_SQUARING_EXPONENT = 100

# Blocks with fewer entries than their family's threshold use the scalar
# loop.  The array kernel has a fixed cost of ~15-80 us per call; the loop
# costs ~0.5 us per entry and coordinate (one ``monomial`` per entry), and
# ~0.2 us per entry on the half-line (one ``cmath.exp``).  Best of 15 x 200
# calls on exponent rows, loop vs array, Python 3.11 and numpy 2.4 on a
# 2-core Xeon VM: nat_add d=2 1 x 25 26 vs 69 us, 1 x 64 105 vs 101,
# 3 x 25 73 vs 72, 1 x 81 86 vs 75, 4 x 25 96 vs 82; nat_mult 3 primes
# 1 x 27 38 vs 72, 1 x 48 63 vs 74, 2 x 27 70 vs 68, 1 x 64 81 vs 63,
# 4 x 27 129 vs 68; half_line 4 x 17 17 vs 17, 1 x 65 14 vs 15, 1 x 80
# 17 vs 17, 2 x 65 24 vs 19.  The Toeplitz route's per-grid blocks
# (``disc_measures``) have 1-4 atoms, so these small blocks are common there.
_MIN_ARRAY_ENTRIES = {NAT_ADD: 72, NAT_MULT: 54, HALF_LINE: 80}

# cmath.exp and numpy's exp share exp(x) * (cos y, sin y) up to here; above
# it cmath rescales, and it raises on overflow where numpy returns inf.
_MAX_EXP_REAL = 708.0


def _character_array(semigroup: Semigroup, points, exponents: np.ndarray):
    """``character_matrix`` as array operations, or None where only the scalar loop is exact."""
    k, n = len(points), len(exponents)
    z = np.array(points, dtype=complex).reshape(k, semigroup.point_dim)
    out = np.empty((k, n), dtype=complex)
    if semigroup.family == HALF_LINE:
        # -s * z as Python computes it: the float -s times the complex z
        minus_s = -exponents
        np.multiply(z.real, minus_s, out=out.real)
        out.real -= 0.0 * z.imag
        np.multiply(z.imag, minus_s, out=out.imag)
        out.imag += 0.0 * z.real
        if not np.isfinite(out).all() or out.real.max() > _MAX_EXP_REAL:
            return None
        return np.exp(out, out=out)
    top = int(exponents.max())
    if top > _MAX_SQUARING_EXPONENT or exponents.min() < 0:  # a negative row is no element's: Python divides
        return None
    # one table for every coordinate: rows c*k .. c*k + k - 1 hold coordinate c
    t_re, t_im = _power_table(z.T.ravel(), top)
    if not (np.isfinite(t_re).all() and np.isfinite(t_im).all()):
        return None  # Python raises OverflowError on an infinite power
    # monomial multiplies onto 1+0j, which can flip the sign of a zero
    first_re, first_im = complex_product(1.0, 0.0, t_re[:k], t_im[:k])
    out.real, out.imag = first_re[:, exponents[:, 0]], first_im[:, exponents[:, 0]]
    re, im = out.real, out.imag
    for c in range(1, semigroup.point_dim):
        rows, columns = slice(c * k, c * k + k), exponents[:, c]
        # complex_product(re, im, b_re, b_im) in place, with three full-size
        # temporaries instead of six (IEEE products and sums commute exactly);
        # they are freed before the next coordinate's gather
        b_re, b_im = t_re[rows, columns], t_im[rows, columns]
        im_b_im = im * b_im
        b_im *= re
        im *= b_re
        im += b_im
        re *= b_re
        re -= im_b_im
        del b_re, b_im, im_b_im
    return out


def character_matrix(semigroup: Semigroup, points, exponents: np.ndarray) -> np.ndarray:
    """Matrix of character values, shape (len(points), len(exponents)).

    Single source of truth for every transform in the package: ``exponents``
    holds one exponent row per element (``element_exponents``, or a grid's
    ``exponents`` and ``closure_exponents``), and entry (k, j) is
    ``monomial(points[k], exponents[j])`` (``exp(-s z)`` on the half-line),
    which is ``char_eval(semigroup, points[k], element j)`` bit for bit.
    Blocks of at least ``_MIN_ARRAY_ENTRIES[family]`` entries are computed as
    arrays, with Python's complex arithmetic spelled out in real arithmetic;
    the scalar loop keeps small blocks, exponents past
    ``_MAX_SQUARING_EXPONENT`` and inputs on which Python's complex power or
    exp would raise.  A value that overflows or is not finite raises
    NumericOverflow.
    """
    out = None
    if len(points) * len(exponents) >= _MIN_ARRAY_ENTRIES[semigroup.family]:
        # Python's float arithmetic overflows to inf without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            out = _character_array(semigroup, points, exponents)
    try:
        out = _character_loop(semigroup, points, exponents) if out is None else out
    except NumericOverflow:
        raise
    except OverflowError as exc:  # cmath.exp on the half-line
        raise NumericOverflow(f"a character value overflows: {exc}") from None
    if not np.isfinite(out).all():
        raise NumericOverflow("a character value overflows the float range or is not a number")
    return out


def _integer(value) -> int:
    """``value`` as an int; a fraction or a boolean, which int() would truncate or accept, raises ValueError."""
    n = int(value)
    if n != value or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    return n


def validate_element(semigroup: Semigroup, element):
    """Normalize and check one element; returns the canonical representation."""
    if semigroup.family == NAT_ADD:
        el = tuple(map(_integer, element))
        if len(el) != semigroup.dim:
            raise ValueError(f"expected multi-index of length {semigroup.dim}")
        if any(x < 0 for x in el):
            raise ValueError("multi-index components must be nonnegative")
        return el
    if semigroup.family == NAT_MULT:
        el = _integer(element)
        kappa(el, semigroup.dim)  # raises on bad factorization
        return el
    el = float(element)
    if not math.isfinite(el) or el < 0:
        raise ValueError("half-line elements are finite nonnegative reals")
    return el


def points_fit(semigroup: Semigroup, points: np.ndarray) -> bool:
    """Whether each row of a numeric (k, point_dim) array is a point ``validate_point`` accepts."""
    if points.dtype.kind not in "biufc" or points.ndim != 2 or points.shape[1] != semigroup.point_dim:
        return False
    if not np.isfinite(points).all():
        return False
    return semigroup.family != HALF_LINE or not (points[:, 0].real < -_HALF_PLANE_TOL).any()


def validate_point(semigroup: Semigroup, point) -> tuple:
    """Normalize a character point to a tuple of finite complex of the right length."""
    pt = tuple(complex(z) for z in point)
    if len(pt) != semigroup.point_dim:
        raise ValueError(
            f"expected character point of length {semigroup.point_dim}, got {len(pt)}"
        )
    if not all(map(cmath.isfinite, pt)):
        raise ValueError(f"character point coordinates must be finite, got {pt}")
    if semigroup.family == HALF_LINE and pt[0].real < -_HALF_PLANE_TOL:
        raise ValueError("half-line character points need Re z >= 0")
    return pt
