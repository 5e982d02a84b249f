"""Command-line entry point: scenario JSON in, deterministic report JSON out.

Reports go to stdout, a one-line human summary to stderr; ``--format text``
replaces the JSON with an indented text rendering.  Exit codes: 0 for a clean
verdict, 2 for a degenerate verdict, 1 for any error (reported as a JSON
object with a machine-readable code).
"""

import argparse
import functools
import math
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from .errors import FMuIntegralZero, LapcovError, OutputUnwritable, ScenarioError
from .kernels import DEGENERATE as KERNEL_DEGENERATE
from .kernels import kernel_recover, truncation_tail_bound
from .laplace import (
    NOT_POINT_MASS,
    POINT_MASS,
    decide_covariance,
    laplace_transform,  # noqa: F401  (a lapcov.cli binding that perfbench/layers.py traces)
    multiplicativity_defect,  # noqa: F401  (a lapcov.cli binding that perfbench/layers.py traces)
    read_point_mass,
    recover_point_mass,
    resolve_point,  # noqa: F401  (a lapcov.cli binding that perfbench/layers.py traces)
    transform_block,
)
from .randomvectors import CONSTANT, decide_constant_vector
from .report import Ragged, Table, dumps, encode_complex, format_float
from .scenario import SECTIONS, element, element_to_json, load_scenario, parse, parse_json, point_to_json
from .semigroups import NAT_ADD, element_labels, identity
from .shifts import (
    ShiftCombination,
    admissible_generator,
    bv_norm,
    pair_function_from_measure,
    positive_definite_check,
    semicharacter_defect,
)
from .toeplitz import (
    _ranks,
    disc_measure,
    disc_measures,
    luecking_check,
    moment_matrices,
    moment_matrix,
    prony_pencils,
    prony_recover,
    rank_one_check,
    toeplitz_matrix,
)


def _require(scenario, field: str):
    value = getattr(scenario, field, None)
    if value is None:
        raise ScenarioError(f"this command needs a '{field}' section")
    return value


def _grid_fields(grid) -> dict:
    return {
        "grid_order": grid.order,
        "grid_size": len(grid.elements),
    }


def _point_mass_fields(verdict, **between) -> dict:
    """c, zeta and zeta_resolved, then ``between``, then multiplicativity_defect and gamma of a point_mass verdict."""
    grid = verdict.character.grid
    return {
        "c": encode_complex(verdict.mass),
        "zeta": point_to_json(verdict.point) if verdict.point_resolved else None,
        "zeta_resolved": verdict.point_resolved,
        **between,
        "multiplicativity_defect": verdict.character_defect,
        "gamma": Table(("s", "value"), (element_labels(grid.semigroup, grid.closure_exponents), verdict.character.array)),
    }


def _cmd_transform(scenario, args):
    mu = _require(scenario, "measure")
    grid = scenario.grid
    labels = element_labels(grid.semigroup, grid.exponents)
    block = transform_block(mu, scenario.symbol, grid.exponents, grid.exponents)
    # record (i, j) holds the pair (labels[i], labels[j])
    n = len(labels)
    columns = (np.repeat(labels, n, axis=0), np.tile(labels, (n,) + (1,) * (labels.ndim - 1)), block.ravel())
    values = Table(("s", "t", "v"), columns)
    report = {"command": "transform", "grid": labels.tolist(), "values": values}
    return report, 0, f"tabulated {len(values)} transform values"


def _cmd_covariance(scenario, args):
    mu = _require(scenario, "measure")
    verdict = decide_covariance(mu, scenario.symbol, scenario.grid, scenario.tolerances)
    sg = mu.semigroup
    report = {"command": "covariance", "verdict": verdict.kind}
    exit_code = 0
    if verdict.kind == POINT_MASS:
        report.update(_point_mass_fields(verdict, max_residual=verdict.max_residual))
        report["certification"] = "relative_to_grid"
        summary = f"point_mass (normalized max residual {format_float(verdict.max_residual)})"
    elif verdict.kind == NOT_POINT_MASS:
        witness_s, witness_t = verdict.witness
        report["witness_s"] = element_to_json(sg, witness_s)
        report["witness_t"] = element_to_json(sg, witness_t)
        report["residual"] = encode_complex(verdict.witness_residual)
        report["max_residual"] = verdict.max_residual
        report["certification"] = "witness"
        summary = f"not_point_mass (witness residual {format_float(abs(verdict.witness_residual))})"
    else:
        report["case"] = verdict.degenerate_case
        exit_code = 2
        summary = f"degenerate ({verdict.degenerate_case})"
    report.update(_grid_fields(scenario.grid))
    report["symbol_vanishes_on_atom"] = verdict.symbol_vanishes_on_atom
    return report, exit_code, f"covariance: {summary}"


def _cmd_recover(scenario, args):
    mu = _require(scenario, "measure")
    verdict = read_point_mass(mu, scenario.symbol, scenario.grid, scenario.tolerances)
    report = {"command": "recover", **_point_mass_fields(verdict), **_grid_fields(scenario.grid)}
    return report, 0, f"recover: multiplicativity defect {format_float(verdict.character_defect)}"


def _cmd_toeplitz(scenario, args):
    mu = _require(scenario, "measure")
    order = scenario.section("toeplitz")["matrix_order"]
    rank_tol = scenario.tolerances.rank
    grid = scenario.grid
    nus = disc_measures(mu, scenario.symbol, grid.exponents)
    moments = moment_matrices(nus, order)
    # both stacks are finite here: moment_matrices and toeplitz_matrix raise NumericOverflow otherwise
    t_sigmas = np.linalg.svd(toeplitz_matrix(moments), compute_uv=False)
    m_sigmas = np.linalg.svd(moments, compute_uv=False)
    checks = [luecking_check(nu, rank) for nu, rank in zip(nus, _ranks(m_sigmas, rank_tol).tolist())]
    agree = [check.agree for check in checks]
    per_element = Table(
        ("s", "singular_values", "moment_rank", "atom_count", "luecking_agree", "rank_one_ratio"),
        (
            element_labels(grid.semigroup, grid.exponents),
            t_sigmas,
            np.array([check.rank for check in checks], dtype=np.int64),
            np.array([check.atom_count for check in checks], dtype=np.int64),
            agree,
            np.array([rank_one_check(sigma) for sigma in t_sigmas], dtype=float),
        ),
    )
    report = {
        "command": "toeplitz",
        "matrix_order": order,
        "rank_tol": float(rank_tol),
        "per_element": per_element,
    }
    if args.moments_csv:
        s = identity(mu.semigroup)
        if args.csv_element is not None:
            s = parse(element, parse_json(args.csv_element, "--csv-element"), "--csv-element", mu.semigroup)
        matrix = moment_matrix(disc_measure(mu, scenario.symbol, s), order)
        try:
            with open(args.moments_csv, "w", encoding="utf-8") as handle:
                for row in matrix:
                    handle.write(",".join(format_float(x) for value in row for x in (value.real, value.imag)) + "\n")
        except OSError as exc:
            raise OutputUnwritable(f"--moments-csv: cannot write {args.moments_csv}: {exc.strerror or exc}") from exc
        report["moments_csv"] = args.moments_csv
    return report, 0, f"toeplitz: rank/support agreement on {sum(agree)}/{len(agree)} elements"


def _cmd_prony(scenario, args):
    mu = _require(scenario, "measure")
    k_max = scenario.section("prony")["k_max"]
    rank_tol = scenario.tolerances.rank
    grid = scenario.grid
    try:
        _, gamma = recover_point_mass(mu, scenario.symbol, grid, scenario.tolerances)
        direct = gamma.array[grid.products[0]].tolist()
    except FMuIntegralZero:
        direct = [None] * len(grid.elements)
    nus = disc_measures(mu, scenario.symbol, grid.exponents)
    tables = moment_matrices(nus, k_max, rows=k_max + 1)
    results = [prony_recover(table, pencil=pencil) for table, pencil in zip(tables, prony_pencils(tables, rank_tol))]
    # a rank-one pencil's atom, scaled back from the disc, is a character value
    from_atom = [nu.scale * result.atoms[0][0] if result.rank == 1 else None for nu, result in zip(nus, results)]
    diffs = [abs(a - b) if a is not None and b is not None else None for a, b in zip(from_atom, direct)]
    pairs = [atom for result in results for atom in result.atoms]
    atoms = Table(("position", "weight"), np.array(pairs, dtype=complex).reshape(len(pairs), 2).T)
    per_element = Table(
        ("s", "rank", "atoms", "reconstruction_residual", "character_from_atom", "character_direct", "route_difference"),
        (
            element_labels(grid.semigroup, grid.exponents),
            np.array([result.rank for result in results], dtype=np.int64),
            Ragged(atoms, np.cumsum([0] + [len(result.atoms) for result in results]).tolist()),
            np.array([result.residual for result in results], dtype=float),
            [encode_complex(z) if z is not None else None for z in from_atom],
            [encode_complex(z) if z is not None else None for z in direct],
            diffs,
        ),
    )
    report = {"command": "prony", "k_max": k_max, "per_element": per_element}
    diffs = [d for d in diffs if d is not None]
    summary = (
        f"prony: max route difference {format_float(max(diffs))}"
        if diffs
        else "prony: no single-atom elements to cross-check"
    )
    return report, 0, summary


def _cmd_pd(scenario, args):
    sg = _require(scenario, "semigroup")
    section = scenario.section("pd")
    if "pair_function" in section:
        f = section["pair_function"]
        grid = f.grid
    else:
        mu = _require(scenario, "measure")
        grid = scenario.grid
        f = pair_function_from_measure(mu, grid, scenario.symbol)
    e = identity(sg)
    if "points" in section:
        points = section["points"]
    else:
        points = [(s, e) for s in grid.elements[:6]]

    definiteness = positive_definite_check(f, points)
    mass = f(e, e)
    defect = semicharacter_defect(f.divided_by(mass), points) if abs(mass) > 0 else None

    report = {
        "command": "pd",
        "points": [
            {"s": element_to_json(sg, s), "t": element_to_json(sg, t)} for s, t in points
        ],
        "min_eigenvalue": definiteness.min_eigenvalue,
        "is_positive_definite": definiteness.is_positive,
        "gram_asymmetry": definiteness.asymmetry,
        "semicharacter_defect": defect,
    }
    if "operators" in section:
        operators = [ShiftCombination(terms) for terms in section["operators"]]
        report["bv_operator_count"] = len(operators)
    else:
        if "generator" in section:
            pair = section["generator"]
        else:
            non_identity = [s for s in grid.elements if s != e]
            pair = (non_identity[0] if non_identity else e, e)
        operators = [admissible_generator(sg, pair, phase) for phase in (1, -1, 1j, -1j)]
        report["bv_generator_pair"] = {
            "a": element_to_json(sg, pair[0]),
            "b": element_to_json(sg, pair[1]),
        }
    report["bv_norm"] = bv_norm(f, operators)
    return report, 0, f"pd: min eigenvalue {format_float(definiteness.min_eigenvalue)}"


def _cmd_random_vector(scenario, args):
    section = scenario.section("random_vector")
    max_order = section["max_order"]
    verdict = decide_constant_vector(section["outcomes"], max_order=max_order, tol=scenario.tolerances)
    report = {"command": "random_vector", "verdict": verdict.kind, "max_order": max_order}
    if verdict.kind == CONSTANT:
        report["zeta"] = point_to_json(verdict.point)
        summary = "random_vector: constant"
    else:
        m, n = verdict.witness
        report["witness_m"] = [int(i) for i in m]
        report["witness_n"] = [int(i) for i in n]
        report["residual"] = encode_complex(verdict.residual)
        summary = f"random_vector: not constant (residual {format_float(abs(verdict.residual))})"
    return report, 0, summary


def _cmd_kernel(scenario, args):
    mu = _require(scenario, "measure")
    if mu.semigroup.family != NAT_ADD:
        raise ScenarioError("the kernel command needs a nat_add measure")
    section = scenario.section("kernel")
    kernel, z_grid = section["coefficients"], section["z_points"]
    verdict = kernel_recover(
        kernel, section["f"], mu, z_grid, section["residual_tol"], tol=scenario.tolerances, grid=scenario.grid
    )
    # hypot reads a coordinate past 1e154 without squaring it, so a huge point gives a large norm, never OverflowError
    z_norm = max((math.hypot(*map(abs, z)) for z in z_grid), default=0.0)
    w_norm = max((math.hypot(*map(abs, p)) for p in mu.points), default=0.0)
    tail = truncation_tail_bound(kernel, z_norm, w_norm) if z_norm * w_norm <= 0.25 else None
    report = {
        "command": "kernel",
        "verdict": verdict.kind,
        "truncation_tail_bound": tail,
        "c": encode_complex(verdict.mass) if verdict.mass is not None else None,
        "zeta": point_to_json(verdict.point) if verdict.point is not None else None,
        "phase": verdict.phase,
        "max_residual": verdict.max_residual,
        "witness_z": point_to_json(verdict.witness_z) if verdict.witness_z is not None else None,
        "reason": verdict.reason,
    }
    exit_code = 2 if verdict.kind == KERNEL_DEGENERATE else 0
    return report, exit_code, f"kernel: {verdict.kind}"


# a subcommand: what runs it, its help line, the scenario sections whose flags it takes,
# and (flag, help) of each flag of its own, which overrides no scenario key
Command = namedtuple("Command", "run help sections options", defaults=((),))
_ENGINE = ("grid", "tolerances")
_COMMANDS = {
    "transform": Command(_cmd_transform, "tabulate the generalized Laplace transform over the grid", ("grid",)),
    "covariance": Command(_cmd_covariance, "decide the covariance equation", _ENGINE),
    "recover": Command(_cmd_recover, "recover the Dirac constant and candidate character", _ENGINE),
    "toeplitz": Command(
        _cmd_toeplitz,
        "singular-value profiles, rank/support and rank-one checks",
        _ENGINE + ("toeplitz",),
        (("--moments-csv", "export a moment matrix as CSV"),
         ("--csv-element", "JSON element for the CSV export (default identity)")),
    ),
    "prony": Command(_cmd_prony, "matrix-pencil atom recovery and route agreement", _ENGINE + ("prony",)),
    "pd": Command(_cmd_pd, "positive definiteness, semicharacter defect and variation norm", ("grid",)),
    "random-vector": Command(
        _cmd_random_vector, "decide whether a discrete random vector is constant", ("tolerances",)
    ),
    "kernel": Command(_cmd_kernel, "decide the analytic-kernel extremal property", _ENGINE),
}


def _render_text(value, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(value, Table):
        value = value.records()
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list, Table)) and len(item):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_render_scalar(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, dict) or (
                isinstance(item, list) and any(isinstance(v, (dict, list)) for v in item)
            ):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_render_scalar(item)}")
    else:
        lines.append(f"{pad}{_render_scalar(value)}")
    return lines


def _render_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, list):
        return "[" + ", ".join(_render_scalar(v) for v in value) + "]"
    return str(value)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="lapcov",
        description="Covariance-equation testing and point-mass recovery for atomic measures",
    )
    parser.add_argument("--version", action="version", version=f"lapcov {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        sub.add_argument("scenario", help="path to a scenario JSON file")
        # each flag overrides its scenario key; the parsed value is kept under the flag as SECTIONS spells it
        for section in command.sections:
            for flag in SECTIONS[section].flags.values():
                sub.add_argument(flag, dest=flag, metavar=flag[2:].replace("-", "_").upper())
        sub.add_argument("--format", choices=("json", "text"), default="json")
        for flag, help_text in command.options:
            sub.add_argument(flag, help=help_text)
    return parser


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        scenario = load_scenario(args.scenario, vars(args))
        report, exit_code, summary = _COMMANDS[args.command].run(scenario, args)
        text = dumps(report) if args.format == "json" else "\n".join(_render_text(report)) + "\n"
    except Exception as exc:  # the process boundary: every failure ends in a JSON error, never a traceback
        if isinstance(exc, LapcovError):
            code, message = exc.code, str(exc)
        else:
            code, message = "internal_error", f"{type(exc).__name__}: {exc}"
        stdout.write(dumps({"error": {"code": code, "message": message}}))
        print(f"error: {message}", file=stderr)
        return 1

    stdout.write(text)
    if args.format == "json":
        print(summary, file=stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
