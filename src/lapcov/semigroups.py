"""The three built-in commutative semigroups and their character evaluations.

Elements and character points are plain hashable Python values:

===========  =========================  ==============================
family       element                    character point
===========  =========================  ==============================
nat_add      tuple of ints, length d    tuple of complex, length d
nat_mult     positive int               tuple of complex, length L
half_line    float >= 0                 1-tuple (z,) with Re z >= 0
===========  =========================  ==============================

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


def closure_table(semigroup: Semigroup, elements: tuple):
    """Sorted pairwise products of ``elements`` and the (n, n) table of their indices.

    Returns ``(closure, products)`` with ``closure[products[i, j]]`` equal to
    ``combine(semigroup, elements[i], elements[j])``.

    Every product gets a sort key from array arithmetic: a mixed-radix code
    for nat_add (coordinate c has radix 2 * max_c + 1, so codes add without
    carries), the integer product for nat_mult, the float sum for half_line.
    Keys beyond 2**62 raise GridTooLarge instead of wrapping around in int64.
    """
    n = len(elements)
    if semigroup.family == NAT_ADD:
        radices = [2 * max(column) + 1 for column in zip(*elements)]
        if math.prod(radices) > _INT_LIMIT:
            raise GridTooLarge("nat_add grid coordinates exceed the supported range")
        strides = [math.prod(radices[c + 1:]) for c in range(len(radices))]
        coords = np.array(elements, dtype=np.int64)
        codes = coords @ np.array(strides, dtype=np.int64)
        keys = np.add.outer(codes, codes)
    elif semigroup.family == NAT_MULT:
        top = max(elements)
        if top * top > _INT_LIMIT:
            raise GridTooLarge(f"product {top}*{top} exceeds the supported range")
        values = np.array(elements, dtype=np.int64)
        keys = np.multiply.outer(values, values)
    else:
        values = np.array(elements, dtype=float)
        keys = np.add.outer(values, values)
    unique, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    if semigroup.family == NAT_ADD:
        closure = tuple(map(tuple, (coords[first // n] + coords[first % n]).tolist()))
    else:
        closure = tuple(unique.tolist())
    return closure, inverse.reshape(n, n)


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


def _character_loop(semigroup: Semigroup, points, elements) -> np.ndarray:
    out = np.empty((len(points), len(elements)), dtype=complex)
    for k, z in enumerate(points):
        for j, s in enumerate(elements):
            out[k, j] = char_eval(semigroup, z, s)
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
# loop.  The array kernel has a fixed cost of ~30-130 us per call plus
# per-element conversions, while the loop's cost per entry is highest for
# nat_mult (it factors each element with ``kappa`` once per atom).  Best of
# 5 x 200 calls, loop vs array, Python 3.11 and numpy 2.4 on a 2-core Xeon
# VM: nat_add d=2 1 x 25 47 vs 133 us, 2 x 36 86 vs 117, 1 x 81 123 vs 120,
# 4 x 25 184 vs 129; nat_mult 3 primes 1 x 27 58 vs 96, 2 x 27 124 vs 111,
# 1 x 64 135 vs 150, 4 x 27 238 vs 124; half_line 2 x 17 32 vs 30, 4 x 17
# 63 vs 35, 1 x 65 58 vs 32.  The Toeplitz route's per-grid blocks
# (``disc_measures``) have 1-4 atoms, so these small blocks are common there.
_MIN_ARRAY_ENTRIES = {NAT_ADD: 128, NAT_MULT: 32, HALF_LINE: 32}

# cmath.exp and numpy's exp share exp(x) * (cos y, sin y) up to here; above
# it cmath rescales, and it raises on overflow where numpy returns inf.
_MAX_EXP_REAL = 708.0


def _character_array(semigroup: Semigroup, points, elements):
    """``character_matrix`` as array operations, or None where only the scalar loop is exact."""
    k, n = len(points), len(elements)
    z = np.array(points, dtype=complex).reshape(k, semigroup.point_dim)
    out = np.empty((k, n), dtype=complex)
    if semigroup.family == HALF_LINE:
        # -s * z as Python computes it: the float -s times the complex z
        minus_s = -np.array(elements, dtype=float)
        np.multiply(z.real, minus_s, out=out.real)
        out.real -= 0.0 * z.imag
        np.multiply(z.imag, minus_s, out=out.imag)
        out.imag += 0.0 * z.real
        if not np.isfinite(out).all() or out.real.max() > _MAX_EXP_REAL:
            return None
        return np.exp(out, out=out)
    if semigroup.family == NAT_MULT:
        exponents = [kappa(s, semigroup.dim) for s in elements]
    else:
        exponents = elements
    top = max(map(max, exponents))
    if top > _MAX_SQUARING_EXPONENT:
        return None
    exponents = np.array(exponents, dtype=np.int64).reshape(n, semigroup.point_dim)
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


def character_matrix(semigroup: Semigroup, points, elements) -> np.ndarray:
    """Matrix of character values, shape (len(points), len(elements)).

    Single source of truth for every transform in the package: entry (k, j)
    is ``char_eval(semigroup, points[k], elements[j])``, bit for bit.  Blocks
    of at least ``_MIN_ARRAY_ENTRIES[family]`` entries are computed as
    arrays, with Python's complex arithmetic spelled out in real arithmetic;
    the scalar loop keeps small blocks, exponents past
    ``_MAX_SQUARING_EXPONENT`` and inputs on which Python's complex power or
    exp would raise.  A value that overflows or is not finite raises
    NumericOverflow.
    """
    out = None
    if len(points) * len(elements) >= _MIN_ARRAY_ENTRIES[semigroup.family]:
        # Python's float arithmetic overflows to inf without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            out = _character_array(semigroup, points, elements)
    try:
        out = _character_loop(semigroup, points, elements) if out is None else out
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
    return semigroup.family != HALF_LINE or not (points[:, 0].real < -_HALF_PLANE_TOL).any()


def validate_point(semigroup: Semigroup, point) -> tuple:
    """Normalize a character point to a tuple of complex of the right length."""
    pt = tuple(complex(z) for z in point)
    if len(pt) != semigroup.point_dim:
        raise ValueError(
            f"expected character point of length {semigroup.point_dim}, got {len(pt)}"
        )
    if semigroup.family == HALF_LINE and pt[0].real < -_HALF_PLANE_TOL:
        raise ValueError("half-line character points need Re z >= 0")
    return pt
