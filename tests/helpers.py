"""Independent oracles and random-instance generators shared by the tests.

The oracles deliberately avoid the package's code paths: powers are repeated
multiplications, factorizations are re-derived by trial division, and all
sums are plain Python loops over atoms.
"""

import cmath
import math

import numpy as np

from lapcov import AtomicMeasure, DiscMeasure, Semigroup, Symbol, disc_measure, moment_matrix, toeplitz_matrix
from lapcov.measures import symbol_values
from lapcov.semigroups import character_matrix, element_exponents
from lapcov.errors import RankDeficientPencil
from lapcov.report import Table
from lapcov.toeplitz import DEFAULT_MATRIX_ORDER, DEFAULT_RANK_TOL, PronyResult, numerical_rank


# ---------------------------------------------------------------- oracles


def slow_power(z: complex, exponent: int) -> complex:
    value = 1 + 0j
    for _ in range(int(exponent)):
        value *= z
    return value


def slow_exponents(n: int, count: int) -> list:
    primes = []
    x = 2
    while len(primes) < count:
        if all(x % p for p in primes):
            primes.append(x)
        x += 1
    exponents = []
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exponents.append(e)
    assert n == 1, "element had a prime factor beyond the retained list"
    return exponents


def slow_char(semigroup: Semigroup, point, element) -> complex:
    if semigroup.family == "nat_add":
        value = 1 + 0j
        for z, e in zip(point, element):
            value *= slow_power(complex(z), e)
        return value
    if semigroup.family == "nat_mult":
        value = 1 + 0j
        for z, e in zip(point, slow_exponents(element, len(point))):
            value *= slow_power(complex(z), e)
        return value
    return cmath.exp(-element * complex(point[0]))


def slow_laplace(semigroup, atoms, f_values, s, t) -> complex:
    """sum_k w_k F_k rho_k(s) conj(rho_k(t)) by direct looping."""
    total = 0j
    for (point, weight), f in zip(atoms, f_values):
        total += weight * f * slow_char(semigroup, point, s) * slow_char(semigroup, point, t).conjugate()
    return total


def slow_covariance_residual(semigroup, atoms, f_values, s, t) -> complex:
    e = {"nat_add": (0,) * len(atoms[0][0]), "nat_mult": 1, "half_line": 0.0}[semigroup.family]
    mass = sum(w for _, w in atoms)
    quad = slow_laplace(semigroup, atoms, [abs(f) ** 2 for f in f_values], s, t)
    left = slow_laplace(semigroup, atoms, f_values, s, e)
    right = slow_laplace(semigroup, atoms, [f.conjugate() for f in f_values], e, t)
    return mass * quad - left * right


def slow_moment(disc_atoms, j: int, k: int) -> complex:
    """sum_i m_i a_i^j conj(a_i)^k by direct looping."""
    total = 0j
    for a, m in disc_atoms:
        total += m * slow_power(complex(a), j) * slow_power(complex(a).conjugate(), k)
    return total


def slow_moment_table(disc_atoms, rows: int, cols: int) -> np.ndarray:
    return np.array([[slow_moment(disc_atoms, j, k) for k in range(cols)] for j in range(rows)])


def slow_vector_sums(outcomes) -> tuple:
    """(sum of p, E[Y], E|Y|, [p * y]) of (p, x, y) outcomes, one outcome at a time from 0 as a Python loop adds.

    ``complex(p) * y`` is the product Python 3.11 forms for ``p * y``: the
    float becomes the complex (p, 0.0) first.
    """
    total, e_y, y_scale, weights = 0.0, 0j, 0.0, []
    for p, _, y in outcomes:
        weight = complex(p) * complex(y)
        total += p
        e_y += weight
        y_scale += p * abs(complex(y))
        weights.append(weight)
    return total, e_y, y_scale, weights


# ------------------------------------------------------ report emitter


def _reference_escape(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _reference_is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _reference_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("reports must contain finite numbers only")
        if value == 0.0:
            value = 0.0  # canonicalize -0.0
        return "%.17g" % value
    if isinstance(value, str):
        return _reference_escape(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _reference_emit(value, indent: int, lines: list, prefix: str, suffix: str):
    pad = "  " * indent
    if isinstance(value, Table):  # a table is the list of its records
        value = value.records()
    if isinstance(value, dict):
        if not value:
            lines.append(f"{pad}{prefix}{{}}{suffix}")
            return
        lines.append(f"{pad}{prefix}{{")
        items = list(value.items())
        for i, (key, item) in enumerate(items):
            comma = "," if i < len(items) - 1 else ""
            _reference_emit(item, indent + 1, lines, f"{_reference_escape(str(key))}: ", comma)
        lines.append(f"{pad}}}{suffix}")
    elif isinstance(value, (list, tuple)):
        value = list(value)
        if all(_reference_is_scalar(v) for v in value):
            body = ", ".join(_reference_scalar(v) for v in value)
            lines.append(f"{pad}{prefix}[{body}]{suffix}")
            return
        lines.append(f"{pad}{prefix}[")
        for i, item in enumerate(value):
            comma = "," if i < len(value) - 1 else ""
            _reference_emit(item, indent + 1, lines, "", comma)
        lines.append(f"{pad}]{suffix}")
    else:
        lines.append(f"{pad}{prefix}{_reference_scalar(value)}{suffix}")


def reference_dumps(report) -> str:
    """The recursive report emitter that ``report.dumps`` must match byte for byte.

    A ``report.Table`` is written as the list ``Table.records()``.
    """
    lines = []
    _reference_emit(report, 0, lines, "", "")
    return "\n".join(lines) + "\n"


# ------------------------------------------- per-element Toeplitz route


def reference_disc_measure(mu, symbol, s) -> DiscMeasure:
    """The disc measure at one element from a one-column character block, as before grids were stacked."""
    values = character_matrix(mu.semigroup, mu.points, element_exponents(mu.semigroup, (s,)))[:, 0]
    scale = 2.0 * (1.0 + max(map(abs, values.tolist())))
    fv = symbol_values(symbol, mu.points)
    atoms = tuple(
        (values[k] / scale, (abs(fv[k]) ** 2) * mu.weights[k]) for k in range(len(values))
    )
    return DiscMeasure(atoms)


def reference_moment_matrix(nu: DiscMeasure, order: int, rows: int = None) -> np.ndarray:
    """One element's moment matrix from its own Vandermonde matrices."""
    rows = order if rows is None else rows
    V = _reference_power_columns(nu.positions, rows)
    W = _reference_power_columns(nu.positions, order)
    return (V * np.asarray(nu.weights, dtype=complex)) @ W.conj().T


def reference_toeplitz_sigma(nu: DiscMeasure, order: int) -> np.ndarray:
    """Singular values of one element's induced Toeplitz matrix."""
    j = np.arange(1, order + 1, dtype=float)
    T = np.sqrt(np.outer(j, j)) / math.pi * reference_moment_matrix(nu, order).T
    return np.linalg.svd(T, compute_uv=False)


def reference_moment_sigma(nu: DiscMeasure, order: int) -> np.ndarray:
    return np.linalg.svd(reference_moment_matrix(nu, order), compute_uv=False)


def reference_luecking_rank(nu: DiscMeasure, order: int, rel_tol: float) -> int:
    return numerical_rank(reference_moment_matrix(nu, order), rel_tol)


def reference_prony_table(nu: DiscMeasure, k_max: int) -> np.ndarray:
    """The (k_max + 1) x k_max moment table that the pencil recovery reads."""
    return reference_moment_matrix(nu, k_max, rows=k_max + 1)


def _reference_power_columns(positions, rows: int) -> np.ndarray:
    V = np.ones((rows, len(positions)), dtype=complex)
    for j in range(1, rows):
        V[j, :] = V[j - 1, :] * positions
    return V


def reference_prony_weights(table: np.ndarray, positions: np.ndarray) -> tuple:
    """Least-squares weights of pencil positions against one moment table, and the misfit norm.

    ``np.linalg.lstsq`` on an outer-product design and ``np.linalg.norm`` of
    its misfit, one table at a time: the per-element form of the solve that
    ``prony_pencils`` stacks per rank.
    """
    rows, cols = table.shape
    V = _reference_power_columns(positions, rows)
    W = _reference_power_columns(positions, cols)
    design = np.stack([np.outer(V[:, i], W[:, i].conj()).ravel() for i in range(len(positions))], axis=1)
    weights, *_ = np.linalg.lstsq(design, table.ravel(), rcond=None)
    return weights, float(np.linalg.norm(design @ weights - table.ravel()))


def reference_prony_recover(table: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> PronyResult:
    """The matrix-pencil recovery of one moment table, solved on its own.

    Its own SVD, ``eigvals``, two Vandermonde builds and an outer-product
    design per table: the per-element form that ``prony_pencils`` batches.
    """
    unshifted = table[:-1, :]
    shifted = table[1:, :]
    U, sigma, Vh = np.linalg.svd(unshifted)
    rank = 0 if sigma[0] == 0.0 else int(np.count_nonzero(sigma > rel_tol * sigma[0]))
    if rank == 0:
        return PronyResult((), 0.0, 0)

    if sigma[rank - 1] <= 1e-13 * sigma[0]:
        raise RankDeficientPencil("restricted moment pencil is numerically singular")
    Ur = U[:, :rank]
    Vr = Vh[:rank, :].conj().T
    positions = np.linalg.eigvals((Ur.conj().T @ shifted @ Vr) / sigma[:rank, None])
    if not np.all(np.isfinite(positions)):
        raise RankDeficientPencil("pencil eigenvalues are not finite")

    weights, misfit = reference_prony_weights(table, positions)
    table_norm = float(np.linalg.norm(table))
    residual = misfit / table_norm if table_norm > 0 else 0.0

    atoms = sorted(zip(positions, weights), key=lambda am: (am[0].real, am[0].imag))
    return PronyResult(tuple((complex(a), complex(m)) for a, m in atoms), residual, rank)


# ------------------------------------------------------ package shortcuts


def toeplitz_profile(mu, symbol, s, order: int = DEFAULT_MATRIX_ORDER) -> np.ndarray:
    """Descending singular values of the induced Toeplitz matrix at probe element s."""
    return np.linalg.svd(toeplitz_matrix(moment_matrix(disc_measure(mu, symbol, s), order)), compute_uv=False)


# ------------------------------------------------- random instance makers


def random_unit_disc(rng, radius: float = 1.0) -> complex:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * theta)


def random_phase(rng) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def random_point(rng, dim: int, radius: float = 1.0) -> tuple:
    return tuple(random_unit_disc(rng, radius) for _ in range(dim))


def random_character_point(rng, semigroup) -> tuple:
    """A random point valid for the semigroup (half-line needs Re z >= 0)."""
    if semigroup.family == "half_line":
        return (complex(rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0)),)
    return random_point(rng, semigroup.point_dim)


def random_polynomial_symbol(rng, dim: int, at_point=None, min_value: float = 0.1) -> Symbol:
    """Random polynomial of total degree <= 2, resampled until |F(at_point)| >= min_value."""
    indices = [
        m
        for m in _multi_indices(dim, 2)
        if sum(m) <= 2
    ]
    while True:
        coefficients = {m: random_unit_disc(rng) for m in indices}
        symbol = Symbol.polynomial(coefficients)
        if at_point is None or abs(symbol.at(at_point)) >= min_value:
            return symbol


def _multi_indices(dim: int, max_component: int) -> list:
    import itertools

    return list(itertools.product(range(max_component + 1), repeat=dim))


def separated_points(rng, dim: int, count: int, separation: float = 0.1, radius: float = 1.0) -> list:
    while True:
        points = [random_point(rng, dim, radius) for _ in range(count)]
        ok = all(
            math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(p, q))) >= separation
            for i, p in enumerate(points)
            for q in points[i + 1 :]
        )
        if ok:
            return points


def random_point_mass(rng, dim: int):
    """(measure, point, weight) with |weight| in [0.1, 10] and |point_i| <= 1."""
    point = random_point(rng, dim)
    weight = rng.uniform(0.1, 10.0) * random_phase(rng)
    mu = AtomicMeasure(Semigroup.nat_add(dim), ((point, weight),))
    return mu, point, weight


def random_multi_atom(rng, dim: int, count: int):
    """Measure with ``count`` separated atoms, |w|>=0.1, |mass| >= 0.05 sum|w|."""
    points = separated_points(rng, dim, count)
    while True:
        weights = [rng.uniform(0.1, 2.0) * random_phase(rng) for _ in range(count)]
        if abs(sum(weights)) >= 0.05 * sum(abs(w) for w in weights):
            break
    return AtomicMeasure(Semigroup.nat_add(dim), tuple(zip(points, weights)))


def random_nonnegative_measure(rng, dim: int, count: int) -> AtomicMeasure:
    points = separated_points(rng, dim, count)
    weights = [rng.uniform(0.1, 2.0) for _ in range(count)]
    return AtomicMeasure(Semigroup.nat_add(dim), tuple(zip(points, weights)))
