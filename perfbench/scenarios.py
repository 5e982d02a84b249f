"""Seeded scenario generation for the lapcov benchmark.

Every workload is a fixed list of op templates (command, semigroup family,
size, kind).  The seed only draws the values inside each scenario (points,
weights, symbols), so the amount of work per op does not depend on the seed
while the numbers do.  Each op carries the generator's ground truth, which
``check.py`` compares against the program's report.
"""

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

# semigroup families used by the benchmark, with their character-point length
FAMILIES = {
    "nat_add": ({"kind": "nat_add", "d": 2}, 2),
    "nat_mult": ({"kind": "nat_mult", "primes": 3}, 3),
    "half_line": ({"kind": "half_line"}, 1),
}

# The default half-line grid steps by 0.25, so it fixes Im zeta only modulo
# 2*pi/0.25; point masses draw Im zeta from a wider range on purpose.
HALF_LINE_STEP = 0.25
ALIAS_PERIOD = 2 * math.pi / HALF_LINE_STEP
HALF_LINE_POINT_IM = 30.0
# distinct half-line atoms stay inside the alias band so the grid can tell them apart
HALF_LINE_DISTINCT_IM = 10.0

# coincident atoms of a point mass differ by far less than the merge tolerance (1e-12)
JITTER = 1e-15


@dataclass
class Op:
    """One benchmark operation: a CLI command on a generated scenario."""

    cmd: str
    scenario: dict
    expect: dict
    label: str = ""
    path: str = None


def _cpx(z: complex) -> list:
    return [z.real, z.imag]


class Generator:
    """Draws scenario values from one seeded stream."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    # -- points, weights and symbols -------------------------------------------------

    def coordinate(self, rmin: float, rmax: float) -> complex:
        return cmath.rect(self.rng.uniform(rmin, rmax), self.rng.uniform(-math.pi, math.pi))

    def point(self, family: str, im_range: float, rmin: float = 0.3) -> tuple:
        if family == "half_line":
            return (complex(self.rng.uniform(0.1, 1.5), self.rng.uniform(-im_range, im_range)),)
        return tuple(self.coordinate(rmin, 1.0) for _ in range(FAMILIES[family][1]))

    def weight(self) -> complex:
        return complex(self.rng.uniform(0.5, 1.5), self.rng.uniform(-0.5, 0.5))

    def symbol(self, family: str, poly: bool) -> dict:
        if poly:
            # 1 + 0.5 z_1 never vanishes: |z_1| <= 1, or Re z_1 > 0 on the half-line
            unit = [1] + [0] * (FAMILIES[family][1] - 1)
            zero = [0] * FAMILIES[family][1]
            return {"kind": "poly", "terms": [{"m": zero, "c": [1.0, 0.0]}, {"m": unit, "c": [0.5, 0.0]}]}
        return {"kind": "const", "value": _cpx(self.coordinate(0.5, 2.0))}

    def distinct_points(self, family: str, k: int, sep: float, rmin: float = 0.3) -> list:
        points = []
        while len(points) < k:
            p = self.point(family, HALF_LINE_DISTINCT_IM, rmin)
            if all(_distance(p, q) >= sep for q in points):
                points.append(p)
        return points

    # -- measures ----------------------------------------------------------------------

    def point_mass(self, family: str, k: int, positive: bool = False):
        """k coincident atoms (jittered far below the merge tolerance) at one point."""
        center = self.point(family, HALF_LINE_POINT_IM)
        atoms = []
        for _ in range(k):
            p = tuple(z + JITTER * complex(self.rng.uniform(-1, 1), self.rng.uniform(-1, 1)) for z in center)
            atoms.append((p, self.rng.uniform(0.5, 1.5) if positive else self.weight()))
        return atoms, center

    def distinct(self, family: str, k: int, positive: bool = False, rmin: float = 0.3):
        points = self.distinct_points(family, k, 1e-3, rmin)
        return [(p, self.rng.uniform(0.5, 1.5) if positive else self.weight()) for p in points]

    def zero_mass(self, family: str, k: int):
        """k/2 pairs of atoms with opposite weights at distinct points."""
        points = self.distinct_points(family, 2 * (k // 2), 1e-3)
        atoms = []
        for i in range(0, len(points), 2):
            w = self.weight()
            atoms += [(points[i], w), (points[i + 1], -w)]
        return atoms

    # -- scenarios -----------------------------------------------------------------------

    def scenario(self, family: str, atoms, order=None, symbol=None, **sections) -> dict:
        data = {
            "semigroup": dict(FAMILIES[family][0]),
            "measure": {"atoms": [{"point": [_cpx(z) for z in p], "weight": _cpx(complex(w))} for p, w in atoms]},
        }
        if symbol is not None:
            data["symbol"] = symbol
        if order is not None:
            data["grid"] = {"order": order}
        data.update(sections)
        return data

    def measure_op(self, cmd: str, family: str, kind: str, k: int, order=None, poly=False, **sections) -> Op:
        """covariance / recover / transform / toeplitz / prony / pd on a generated measure."""
        positive = cmd == "pd"
        symbol = None if positive else self.symbol(family, poly)
        expect = {"kind": kind}
        if kind == "point_mass":
            atoms, center = self.point_mass(family, k, positive)
            expect["zeta"] = center
            expect["c"] = _mass(atoms)
        elif kind == "not_point_mass":
            atoms = self.distinct(family, k, positive)
            if cmd in ("toeplitz", "prony"):
                while not resolvable(family, atoms, symbol, order):
                    atoms = self.distinct(family, k, rmin=0.7)
            expect["c"] = _mass(atoms)
        else:
            atoms = self.zero_mass(family, k)
        data = self.scenario(family, atoms, order, symbol, **sections)
        return Op(cmd, data, expect, label=f"{cmd}/{family}/{kind}/k{k}/o{order}")

    def random_vector_op(self, n: int, distinct: int, dim: int) -> Op:
        xs = []
        while len(xs) < distinct:
            x = tuple(self.coordinate(0.3, 1.0) for _ in range(dim))
            if all(_distance(x, q) >= 0.05 for q in xs):
                xs.append(x)
        raw = [self.rng.uniform(0.5, 1.5) for _ in range(n)]
        total = math.fsum(raw)
        outcomes = [
            {"p": r / total, "x": [_cpx(z) for z in xs[i % distinct]], "y": _cpx(complex(self.rng.uniform(0.5, 1.5), self.rng.uniform(-0.2, 0.2)))}
            for i, r in enumerate(raw)
        ]
        expect = {"kind": "constant" if distinct == 1 else "not_constant"}
        if distinct == 1:
            expect["zeta"] = xs[0]
        data = {"random_vector": {"outcomes": outcomes, "max_order": 3}}
        return Op("random-vector", data, expect, label=f"random-vector/n{n}/x{distinct}/d{dim}")

    def kernel_op(self, truncation: int = 8) -> Op:
        zeta = self.coordinate(0.05, 0.5)
        c = self.rng.uniform(0.5, 2.0)
        theta = self.rng.uniform(-math.pi, math.pi)
        lam = math.sqrt(c) * cmath.exp(1j * theta)
        f = [{"m": [m], "b": _cpx(lam * (m + 1) * zeta.conjugate() ** m)} for m in range(truncation + 1)]
        data = {
            "semigroup": {"kind": "nat_add", "d": 1},
            "measure": {"atoms": [{"point": [_cpx(zeta)], "weight": [c, 0.0]}]},
            "kernel": {"kind": "bergman", "truncation": truncation, "f": f},
        }
        expect = {"kind": "extremal", "c": complex(c), "zeta": (zeta,), "phase": theta}
        return Op("kernel", data, expect, label="kernel/bergman")


# -- independent reference math (no lapcov imports) -------------------------------------

PRIMES = (2, 3, 5)
RESOLVE_MIN = 1e-7


def _mass(atoms) -> complex:
    return complex(math.fsum(complex(w).real for _, w in atoms), math.fsum(complex(w).imag for _, w in atoms))


def _distance(p, q) -> float:
    return math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(p, q)))


def identity(family: str):
    return {"nat_add": (0, 0), "nat_mult": 1, "half_line": 0.0}[family]


def grid_elements(family: str, order=None) -> list:
    """The program's default probe grid, rebuilt independently."""
    if family == "nat_add":
        order = 4 if order is None else order
        return [(a, b) for a in range(order + 1) for b in range(order + 1)]
    if family == "nat_mult":
        order = 2 if order is None else order
        return sorted(
            2**a * 3**b * 5**c for a in range(order + 1) for b in range(order + 1) for c in range(order + 1)
        )
    order = 8 if order is None else order
    return [HALF_LINE_STEP * k for k in range(order + 1)]


def exponents(n: int) -> tuple:
    out = []
    for p in PRIMES:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append(e)
    return tuple(out)


def rho(family: str, point, s) -> complex:
    """Character value at element s of the character labelled by ``point``."""
    if family == "half_line":
        return cmath.exp(-s * point[0])
    powers = s if family == "nat_add" else exponents(s)
    value = 1 + 0j
    for z, e in zip(point, powers):
        value *= z**e
    return value


def disc_positions(family: str, points, s) -> list:
    values = [rho(family, p, s) for p in points]
    scale = 2.0 * (1.0 + max(abs(v) for v in values))
    return [v / scale for v in values]


def resolvable(family: str, atoms, symbol, order=None) -> bool:
    """Whether every probe element's disc measure has a well-conditioned moment matrix.

    Luecking's rank count and the pencil recovery only see disc atoms that
    the moment matrix resolves.  Toeplitz/prony measures therefore keep
    sigma_k / sigma_1 >= RESOLVE_MIN (k distinct disc atoms) at matrix orders
    6 (the prony k_max) and 12 (the Toeplitz matrix order) on every element:
    ten times the rank tolerance 1e-8 that the program applies.
    """
    points = [p for p, _ in atoms]
    charges = np.array([abs(symbol_value(symbol, p)) ** 2 * complex(w) for p, w in atoms])
    for s in grid_elements(family, order):
        if s == identity(family):
            continue  # every atom sits at the same disc point there
        positions = np.array(disc_positions(family, points, s))
        for size in (6, 12):
            V = positions[None, :] ** np.arange(size)[:, None]
            sigma = np.linalg.svd((V * charges) @ V.conj().T, compute_uv=False)
            if sigma[len(points) - 1] < RESOLVE_MIN * sigma[0]:
                return False
    return True


def symbol_value(symbol, point) -> complex:
    if symbol is None:
        return 1 + 0j
    if symbol["kind"] == "const":
        return complex(*symbol["value"])
    total = 0j
    for term in symbol["terms"]:
        value = complex(*term["c"])
        for z, e in zip(point, term["m"]):
            value *= z**e
        total += value
    return total


# -- workloads ---------------------------------------------------------------------------

DENSE_ORDERS = {"nat_add": 8, "nat_mult": 3, "half_line": 32}
FINE_ORDERS = {"nat_add": (8, 10, 12), "nat_mult": (2, 3, 4), "half_line": (64, 96, 128)}
# transform writes grid^2 values: cap its grid near 81 elements so one command
# does not dominate fine_grid (nat_mult order 3 has 64 elements, order 4 has 125)
TRANSFORM_ORDERS = {"nat_add": 8, "nat_mult": 3, "half_line": 8}
TOEPLITZ_SECTIONS = {"toeplitz": {"toeplitz": {"matrix_order": 12}}, "prony": {"prony": {"k_max": 6}}}


def small_mix(gen: Generator) -> list:
    """One small scenario per subcommand, plus a zero-mass measure (exit code 2)."""
    return [
        gen.measure_op("transform", "nat_add", "point_mass", 1, order=2),
        gen.measure_op("covariance", "half_line", "point_mass", 1, poly=True),
        gen.measure_op("covariance", "nat_mult", "zero_mass", 2),
        gen.measure_op("recover", "nat_add", "not_point_mass", 2, order=3),
        gen.measure_op("toeplitz", "nat_mult", "point_mass", 1, **TOEPLITZ_SECTIONS["toeplitz"]),
        gen.measure_op("prony", "nat_add", "not_point_mass", 2, **TOEPLITZ_SECTIONS["prony"]),
        gen.measure_op("pd", "half_line", "point_mass", 1),
        gen.random_vector_op(16, 2, 1),
        gen.kernel_op(),
    ]


def _dense_atoms(gen: Generator) -> list:
    ops = []
    for family, order in DENSE_ORDERS.items():
        for i, k in enumerate((1, 16, 64, 256)):
            for cmd in ("covariance", "recover"):
                ops.append(gen.measure_op(cmd, family, "point_mass", k, order=order, poly=i % 2 == 1))
                if k > 1:
                    ops.append(gen.measure_op(cmd, family, "not_point_mass", k, order=order, poly=i % 2 == 0))
            if k > 1:
                ops.append(gen.measure_op("covariance", family, "zero_mass", k, order=order))
    for n, distinct, dim in ((512, 1, 1), (1024, 8, 2), (2048, 64, 1), (512, 64, 2), (1024, 1, 2), (2048, 8, 1)):
        ops.append(gen.random_vector_op(n, distinct, dim))
    return ops


def _fine_grid(gen: Generator) -> list:
    ops = []
    for family, orders in FINE_ORDERS.items():
        for i, order in enumerate(orders):
            for cmd in ("covariance", "recover", "pd"):
                ops.append(gen.measure_op(cmd, family, "point_mass", 1, order=order, poly=i % 2 == 1))
                # pd builds the same closure-squared table for any atom count: two
                # atoms only on the smallest grid keeps a pass short enough to repeat
                if cmd != "pd" or i == 0:
                    ops.append(gen.measure_op(cmd, family, "not_point_mass", 2, order=order, poly=i % 2 == 0))
        ops.append(gen.measure_op("transform", family, "point_mass", 1, order=TRANSFORM_ORDERS[family]))
        ops.append(gen.measure_op("transform", family, "not_point_mass", 2, order=TRANSFORM_ORDERS[family], poly=True))
    return ops


def _toeplitz_route(gen: Generator) -> list:
    ops = []
    # three draws per template: these ops are cheap, and percentiles need ~100 ops
    for family in 3 * tuple(FAMILIES):
        for cmd, section in TOEPLITZ_SECTIONS.items():
            for kind, k in (("point_mass", 1), ("point_mass", 4), ("not_point_mass", 2), ("not_point_mass", 3), ("not_point_mass", 4)):
                ops.append(gen.measure_op(cmd, family, kind, k, poly=k % 2 == 0, **section))
    return ops


IN_PROCESS = {"dense_atoms": _dense_atoms, "fine_grid": _fine_grid, "toeplitz_route": _toeplitz_route}
WORKLOADS = tuple(IN_PROCESS) + ("cold_cli",)


def build(workload: str, seed: int) -> list:
    """The workload's op pool for ``seed``, in a fixed, seed-independent template order.

    In-process workloads append the small mix, so every layer does a little
    work in every workload; cold_cli is the small mix alone.
    """
    gen = Generator(seed)
    ops = IN_PROCESS[workload](gen) if workload in IN_PROCESS else []
    ops += small_mix(gen)
    # spread heavy and light templates over a pass with a fixed permutation
    random.Random(0).shuffle(ops)
    for op in ops:
        op.expect["exit"] = 2 if op.expect["kind"] == "zero_mass" else 0
        op.expect["half_line_zeta"] = (
            op.scenario.get("semigroup", {}).get("kind") == "half_line"
            and "zeta" in op.expect
            and op.cmd in ("covariance", "recover")
        )
        op.expect["beyond_band"] = (
            op.expect["half_line_zeta"] and abs(op.expect["zeta"][0].imag) > ALIAS_PERIOD / 2
        )
    return ops
