import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import lapcov.cli as cli
import lapcov.laplace as laplace
import lapcov.measures as measures
import lapcov.semigroups as semigroups
import lapcov.toeplitz as toeplitz
from lapcov.cli import main
from lapcov.errors import (
    ExpectationYZero,
    FMuIntegralZero,
    GridTooLarge,
    LapcovError,
    MassZero,
    MissingGridValue,
    NumericOverflow,
    OutputUnwritable,
    PrimeOutOfRange,
    RankDeficientPencil,
    ScenarioError,
    SymbolUndefinedAtAtom,
    ZeroWeightAtom,
)
from lapcov.scenario import load_scenario

from helpers import reference_disc_measure, reference_prony_table

DATA = os.path.join(os.path.dirname(__file__), "data")
SCENARIOS = os.path.join(DATA, "scenarios")
GOLDEN = os.path.join(DATA, "golden")

# (golden name, scenario file, argv tail, expected exit code); five fixed
# scenario files cover all eight subcommands
GOLDEN_CASES = [
    ("point_mass_natadd2__covariance", "point_mass_natadd2.json", ["covariance"], 0),
    ("point_mass_natadd2__recover", "point_mass_natadd2.json", ["recover"], 0),
    ("point_mass_natadd2__transform", "point_mass_natadd2.json", ["transform", "--grid-order", "1"], 0),
    ("two_atoms_natadd1__covariance", "two_atoms_natadd1.json", ["covariance"], 0),
    ("two_atoms_natadd1__toeplitz", "two_atoms_natadd1.json", ["toeplitz", "--matrix-order", "6"], 0),
    ("two_atoms_natadd1__prony", "two_atoms_natadd1.json", ["prony", "--k-max", "4"], 0),
    ("two_atoms_natadd1__pd", "two_atoms_natadd1.json", ["pd"], 0),
    ("zero_mass_natadd1__covariance", "zero_mass_natadd1.json", ["covariance"], 2),
    ("random_vector_two_point__random-vector", "random_vector_two_point.json", ["random-vector"], 0),
    ("kernel_extremal__kernel", "kernel_extremal.json", ["kernel"], 0),
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def build_argv(scenario, tail):
    return [tail[0], os.path.join(SCENARIOS, scenario)] + tail[1:]


@pytest.mark.parametrize("name,scenario,tail,expected_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_byte_equality(name, scenario, tail, expected_code):
    code, out, _ = run_cli(build_argv(scenario, tail))
    assert code == expected_code
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        golden = fh.read()
    assert out.encode("utf-8") == golden


@pytest.mark.parametrize("name,scenario,tail,expected_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_reports_reparse_as_json(name, scenario, tail, expected_code):
    _, out, _ = run_cli(build_argv(scenario, tail))
    parsed = json.loads(out)
    assert isinstance(parsed, dict)
    assert "command" in parsed


def test_repeated_runs_are_byte_identical():
    argv = build_argv("two_atoms_natadd1.json", ["covariance"])
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second


def test_summary_goes_to_stderr():
    code, out, err = run_cli(build_argv("two_atoms_natadd1.json", ["covariance"]))
    assert code == 0
    assert "not_point_mass" in err
    assert "not_point_mass" in out


def test_text_format():
    code, out, _ = run_cli(build_argv("two_atoms_natadd1.json", ["covariance", "--format", "text"]))
    assert code == 0
    assert out.startswith("command: covariance")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_witness_report_fields():
    _, out, _ = run_cli(build_argv("two_atoms_natadd1.json", ["covariance"]))
    report = json.loads(out)
    assert report["verdict"] == "not_point_mass"
    assert report["witness_s"] == [1]
    assert report["witness_t"] == [1]
    assert report["residual"] == [1, 0]


def test_missing_file_is_an_error():
    code, out, err = run_cli(["covariance", os.path.join(SCENARIOS, "does_not_exist.json")])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "scenario_invalid"
    assert "error" in err


def test_schema_violation_is_an_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"semigroup": {"kind": "nat_add"}, "measure": {"atoms": []}}')
    code, out, _ = run_cli(["covariance", str(bad)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "scenario_invalid"


def test_symbol_undefined_is_an_error(tmp_path):
    scn = {
        "semigroup": {"kind": "nat_add", "d": 1},
        "measure": {"atoms": [{"point": [[0.5, 0.0]], "weight": [1.0, 0.0]}]},
        "symbol": {"kind": "table", "entries": [{"point": [[0.9, 0.0]], "value": [1.0, 0.0]}]},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    code, out, _ = run_cli(["covariance", str(path)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "symbol_undefined"


def test_rank_deficient_pencil_is_an_error():
    # a rank tolerance this small keeps noise directions in the pencil
    code, out, err = run_cli(build_argv("two_atoms_natadd1.json", ["prony", "--rank-tol", "1e-300"]))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "rank_deficient_pencil"
    assert "Traceback" not in err


def run_probe(probe: str) -> str:
    """The stdout of ``python -c probe`` in a fresh interpreter that imports lapcov from this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True).stdout


def test_cli_import_does_not_load_scipy():
    # the package is numpy-only; importing scipy added about 0.2 s to every cold start, numpy.ma about 20 ms
    argv = build_argv("two_atoms_natadd1.json", ["prony"])
    probe = (
        "import io, sys, lapcov.cli; "
        f"code = lapcov.cli.main({argv!r}, stdout=io.StringIO(), stderr=io.StringIO()); "
        "print(code, [name for name in ('scipy', 'numpy.ma') if name in sys.modules])"
    )
    assert run_probe(probe).strip() == "0 []"


def test_cli_import_loads_little_beyond_numpy_argparse_and_json():
    # every module imported at startup is paid by each cold start; these three were all lapcov.cli added
    probe = (
        "import argparse, json, sys, numpy; before = set(sys.modules); import lapcov.cli; "
        "print(json.dumps(sorted(name for name in set(sys.modules) - before if name.split('.')[0] != 'lapcov')))"
    )
    assert set(json.loads(run_probe(probe))) <= {"cmath", "copy", "dataclasses"}


def test_usage_error_exit_code():
    assert main(["covariance"], stdout=io.StringIO(), stderr=io.StringIO()) == 1
    assert main(["--help"], stdout=io.StringIO(), stderr=io.StringIO()) == 0


def test_moments_csv_export(tmp_path):
    target = tmp_path / "moments.csv"
    code, out, _ = run_cli(
        build_argv(
            "two_atoms_natadd1.json",
            ["toeplitz", "--matrix-order", "4", "--moments-csv", str(target), "--csv-element", "[1]"],
        )
    )
    assert code == 0
    rows = target.read_text().strip().split("\n")
    assert len(rows) == 4
    assert all(len(row.split(",")) == 8 for row in rows)
    # first row: moments a^0 conj(a)^k of atoms +-0.25 with weights 1/2
    first = [float(v) for v in rows[0].split(",")]
    assert first[0] == 1.0 and first[1] == 0.0


def test_tolerance_flag_changes_verdict():
    # an absurdly loose residual tolerance turns the two-atom verdict around
    code, out, _ = run_cli(build_argv("two_atoms_natadd1.json", ["covariance", "--tol-res", "10.0"]))
    assert code == 0
    assert json.loads(out)["verdict"] == "point_mass"


def scenario_file(tmp_path, name, edit):
    """A copy of the test scenario ``name`` changed by ``edit``, a function of its parsed JSON."""
    with open(os.path.join(SCENARIOS, name), encoding="utf-8") as fh:
        scn = json.load(fh)
    edit(scn)
    path = tmp_path / name
    path.write_text(json.dumps(scn))
    return str(path)


def test_the_zero_measure_is_a_mass_zero_case(tmp_path):
    # +1 and -1 at one point merge into a weight 0; the weight scale is 0 as well
    zero = scenario_file(tmp_path, "zero_mass_natadd1.json", lambda scn: scn["measure"]["atoms"][0].update(point=[-1]))
    code, out, _ = run_cli(["covariance", zero])
    report = json.loads(out)
    assert (code, report["verdict"], report["case"]) == (2, "degenerate", "mass_zero_analytic_vanishes")
    code, out, _ = run_cli(["recover", zero])
    assert (code, json.loads(out)["error"]["code"]) == (1, "mass_zero")
    zero_kernel = scenario_file(tmp_path, "kernel_extremal.json", lambda scn: scn["measure"]["atoms"][0].update(weight=0))
    code, out, _ = run_cli(["kernel", zero_kernel])
    report = json.loads(out)
    assert (code, report["verdict"], report["reason"]) == (2, "degenerate", "measure_mass_zero")


def test_tiny_weights_are_judged_against_their_own_scale(tmp_path):
    # sum |w|^2 underflows to 0 at weights 1e-163: a point mass there is still certified, and a
    # pair is refuted at (4, 4) with a normalized residual that is not 0
    def covariance(*points):
        path = tmp_path / "tiny.json"
        atoms = [{"point": [z], "weight": 1e-163} for z in points]
        path.write_text(json.dumps({"semigroup": {"kind": "nat_add", "d": 1}, "measure": {"atoms": atoms}}))
        code, out, _ = run_cli(["covariance", str(path)])
        return code, json.loads(out)

    code, report = covariance(1e18)
    assert (code, report["verdict"], report["zeta"]) == (0, "point_mass", [[1e18, 0]])
    assert report["max_residual"] < 1e-8
    code, report = covariance(1e18, 2e18)
    assert (code, report["verdict"]) == (0, "not_point_mass")
    assert [report["witness_s"], report["witness_t"]] == [[4], [4]]
    assert report["max_residual"] == pytest.approx(0.439453125)


def test_pd_holds_no_table_over_the_closure_pairs():
    # the order-12 closure has 625 elements: a table over its 390,625 pairs takes 6.25 MB, the probed pairs a few KB
    argv = build_argv("point_mass_natadd2.json", ["pd", "--grid-order", "12"])
    code, out, _ = run_cli(argv)  # warm every cache first
    tracemalloc.start()
    try:
        assert run_cli(argv)[:2] == (code, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 1_000_000, f"pd peaked at {peak} bytes"


def test_pd_accepts_explicit_pair_function_and_operators(tmp_path):
    # the published pair-function encoding round-trips through the pd command
    scn = {
        "semigroup": {"kind": "nat_add", "d": 1},
        "pd": {
            "pair_function": {
                "grid": [[0], [1]],
                "values": [
                    {"s": [s], "t": [t], "v": [0.5 ** (s + t), 0.0]}
                    for s in range(5)
                    for t in range(5)
                ],
            },
            "points": [{"s": [0], "t": [0]}, {"s": [1], "t": [0]}],
            "operators": [
                [{"a": [0], "b": [0], "coeff": [1.0, 0.0]}],
                [{"a": [1], "b": [0], "coeff": [0.0, 1.0]}],
            ],
        },
    }
    path = tmp_path / "pf.json"
    path.write_text(json.dumps(scn))
    code, out, _ = run_cli(["pd", str(path)])
    assert code == 0
    report = json.loads(out)
    # |I f(e,e)| + |i f(1,0)| = 1 + 0.5
    assert abs(report["bv_norm"] - 1.5) < 1e-15
    assert report["is_positive_definite"]
    assert report["semicharacter_defect"] < 1e-15


def test_transform_output_feeds_pair_function(tmp_path):
    # transform emits the same {s, t, v} entries the pd command consumes
    _, out, _ = run_cli(build_argv("two_atoms_natadd1.json", ["transform", "--grid-order", "2"]))
    table = json.loads(out)
    scn = {
        "semigroup": {"kind": "nat_add", "d": 1},
        "pd": {
            "pair_function": {"grid": [[0], [1]], "values": table["values"]},
            "points": [{"s": [0], "t": [0]}, {"s": [1], "t": [0]}],
        },
    }
    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(scn))
    code, out, _ = run_cli(["pd", str(path)])
    assert code == 0
    assert json.loads(out)["command"] == "pd"


def test_nat_mult_scenario_roundtrip(tmp_path):
    scn = {
        "semigroup": {"kind": "nat_mult", "primes": 2},
        "measure": {"atoms": [{"point": [[0.5, 0.0], [0.25, 0.0]], "weight": [1.5, 0.0]}]},
        "grid": {"order": 1},
    }
    path = tmp_path / "nm.json"
    path.write_text(json.dumps(scn))
    code, out, _ = run_cli(["covariance", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "point_mass"
    assert report["zeta"] == [[0.5, 0.0], [0.25, 0.0]]


def test_half_line_scenario_roundtrip(tmp_path):
    scn = {
        "semigroup": {"kind": "half_line"},
        "measure": {"atoms": [{"point": [[0.8, 1.1]], "weight": [2.0, 0.0]}]},
        "grid": {"elements": [0.0, 0.5, 1.0, 1.5]},
    }
    path = tmp_path / "hl.json"
    path.write_text(json.dumps(scn))
    code, out, _ = run_cli(["covariance", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "point_mass"
    assert abs(report["zeta"][0][0] - 0.8) < 1e-9
    assert abs(report["zeta"][0][1] - 1.1) < 1e-9


# ------------------------------------------------------- bad numeric inputs


def assert_scenario_invalid(argv, path_text):
    code, out, err = run_cli(argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "scenario_invalid"
    assert path_text in error["message"]
    assert "Traceback" not in err


@pytest.mark.parametrize("order", ["0", "-1"])
def test_grid_order_below_one_is_rejected(order):
    # a grid of the identity alone would certify two atoms as a point mass
    for command in ("covariance", "recover", "transform"):
        assert_scenario_invalid(build_argv("two_atoms_natadd1.json", [command, "--grid-order", order]), "--grid-order")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
@pytest.mark.parametrize("flag", ["--tol-res", "--tol-mass", "--rank-tol"])
def test_non_finite_tolerances_are_rejected(flag, value):
    # the error names the flag, with the leaf message of its scenario key, not the tolerances section
    argv = build_argv("point_mass_natadd2.json", ["covariance", f"{flag}={value}"])
    assert_scenario_invalid(argv, f"{flag}: expected a positive number")


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_scenario_tolerances_are_rejected(tmp_path, value):
    with open(os.path.join(SCENARIOS, "point_mass_natadd2.json")) as fh:
        scn = json.load(fh)
    scn["tolerances"] = {"residual": "VALUE"}
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(scn).replace('"VALUE"', value))
    assert_scenario_invalid(["covariance", str(path)], "tolerances")


@pytest.mark.parametrize(
    "command,flag,value,message",
    [
        ("covariance", "--grid-order", "2.5", "expected a positive integer"),
        ("covariance", "--tol-res", "abc", "expected a positive number"),
        ("prony", "--k-max", "1.5", "expected a positive integer"),
        ("toeplitz", "--matrix-order", "x", "expected a positive integer"),
        # past the float range: it must not reach the leaf's float()
        ("covariance", "--tol-res", "1" * 400, "expected a positive number"),
        ("covariance", "--rank-tol", "1" * 400, "expected a positive number below 1"),
    ],
    ids=["grid-order-2.5", "tol-res-abc", "k-max-1.5", "matrix-order-x", "tol-res-400-digits", "rank-tol-400-digits"],
)
def test_a_flag_value_that_is_no_number_of_its_kind_is_scenario_invalid(command, flag, value, message):
    # the flag's text reaches the leaf parser of the key it overrides, not argparse's type check
    code, out, err = run_cli(build_argv("two_atoms_natadd1.json", [command, flag, value]))
    assert code == 1
    assert json.loads(out)["error"] == {"code": "scenario_invalid", "message": f"{flag}: {message}"}
    assert "Traceback" not in err and "usage:" not in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_k_max_below_one_is_rejected(value):
    assert_scenario_invalid(build_argv("two_atoms_natadd1.json", ["prony", "--k-max", value]), "--k-max")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_matrix_order_below_one_is_rejected(value):
    assert_scenario_invalid(build_argv("two_atoms_natadd1.json", ["toeplitz", "--matrix-order", value]), "--matrix-order")


# a valid flag for the key each command's own section holds
FLAG_OVERRIDES = {
    "covariance": ["--grid-order", "2"],
    "prony": ["--k-max", "3"],
    "toeplitz": ["--matrix-order", "4"],
}


@pytest.mark.parametrize(
    "command,section,key", [("prony", "prony", "k_max"), ("toeplitz", "toeplitz", "matrix_order")]
)
@pytest.mark.parametrize("value", [0, -3, 2.5, True, "6", None])
def test_scenario_k_max_and_matrix_order_are_validated(tmp_path, command, section, key, value):
    with open(os.path.join(SCENARIOS, "two_atoms_natadd1.json")) as fh:
        scn = json.load(fh)
    scn[section] = {key: value}
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(scn))
    # a flag overrides the key only once the section it overrides is valid
    for flags in ([], FLAG_OVERRIDES[command]):
        assert_scenario_invalid([command, str(path)] + flags, f"{section}.{key}")
    scn[section] = [value]
    path.write_text(json.dumps(scn))
    for flags in ([], FLAG_OVERRIDES[command]):
        assert_scenario_invalid([command, str(path)] + flags, section)


def test_flag_overrides_scenario_k_max_and_matrix_order(tmp_path):
    with open(os.path.join(SCENARIOS, "two_atoms_natadd1.json")) as fh:
        scn = json.load(fh)
    scn["prony"] = {"k_max": 5}
    scn["toeplitz"] = {"matrix_order": 5}
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(scn))
    code, out, _ = run_cli(["prony", str(path)])
    assert code == 0 and json.loads(out)["k_max"] == 5
    code, out, _ = run_cli(["prony", str(path), "--k-max", "3"])
    assert code == 0 and json.loads(out)["k_max"] == 3
    code, out, _ = run_cli(["toeplitz", str(path), "--matrix-order", "4"])
    assert code == 0 and json.loads(out)["matrix_order"] == 4


# ------------------------------------------------- non-finite scenario numbers

HALF_LINE_SCENARIO = {
    "semigroup": {"kind": "half_line"},
    "measure": {"atoms": [{"point": [[0.8, 1.1]], "weight": [2.0, 0.0]}]},
    "grid": {"elements": [0.0, 0.5, 1.0]},
}


def write_scenario(tmp_path, scn, token):
    """Write ``scn`` with the string "VALUE" replaced by the raw JSON ``token``."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn).replace('"VALUE"', token))
    return str(path)


# case: (command, scenario file or None for HALF_LINE_SCENARIO, edit, path in the error)
NON_FINITE_CASES = {
    "weight": ("covariance", "two_atoms_natadd1.json",
               lambda s: s["measure"]["atoms"][0].update(weight=["VALUE", 0.0]), "measure.atoms[0].weight"),
    "point": ("covariance", "two_atoms_natadd1.json",
              lambda s: s["measure"]["atoms"][1].update(point=[["VALUE", 0.0]]), "measure.atoms[1].point[0][0]"),
    "half_line_element": ("covariance", None, lambda s: s["grid"]["elements"].append("VALUE"), "grid.elements[3]"),
    "probability": ("random-vector", "random_vector_two_point.json",
                    lambda s: s["random_vector"]["outcomes"][0].update(p="VALUE"), "random_vector.outcomes[0].p"),
    # a section the command does not read is still read as JSON, so its numbers are checked too
    "unread_section": ("covariance", "two_atoms_natadd1.json", lambda s: s.update(kernel={"residual_tol": "VALUE"}),
                       "kernel.residual_tol"),
}


NON_FINITE_TOKENS = [
    "NaN",
    "Infinity",
    "-Infinity",
    "1e999",
    pytest.param("1" + "0" * 400, id="int_overflow"),
    pytest.param("1" * 5000, id="int_digit_limit"),  # int() refuses more than 4300 digits
]


@pytest.mark.parametrize("token", NON_FINITE_TOKENS)
@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_non_finite_scenario_numbers_are_rejected(tmp_path, case, token):
    command, source, edit, path_text = NON_FINITE_CASES[case]
    if source is None:
        scn = json.loads(json.dumps(HALF_LINE_SCENARIO))
    else:
        with open(os.path.join(SCENARIOS, source)) as fh:
            scn = json.load(fh)
    edit(scn)
    assert_scenario_invalid([command, write_scenario(tmp_path, scn, token)], path_text)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "1e999"])
def test_non_finite_csv_element_is_rejected(tmp_path, token):
    path = write_scenario(tmp_path, HALF_LINE_SCENARIO, "")
    argv = ["toeplitz", path, "--moments-csv", str(tmp_path / "m.csv"), "--csv-element", token]
    assert_scenario_invalid(argv, "--csv-element")


def test_invalid_csv_element_json_is_rejected(tmp_path):
    argv = build_argv("two_atoms_natadd1.json", ["toeplitz", "--moments-csv", str(tmp_path / "m.csv"), "--csv-element", "[1"])
    assert_scenario_invalid(argv, "--csv-element")


@pytest.mark.parametrize("opening,closing", [("[", "]"), ('{"a": ', "}")])
def test_nesting_past_the_recursion_limit_is_invalid_json(tmp_path, opening, closing):
    text = opening * 100000 + "1" + closing * 100000
    path = tmp_path / "deep.json"
    path.write_text(text)
    for command in ("covariance", "random-vector", "pd"):
        assert_scenario_invalid([command, str(path)], "scenario: not valid JSON: maximum recursion depth exceeded")
    tail = ["toeplitz", "--moments-csv", str(tmp_path / "m.csv"), "--csv-element", text]
    assert_scenario_invalid(build_argv("two_atoms_natadd1.json", tail), "--csv-element: not valid JSON: maximum")


# case: (command, edit that repeats a key, the whole error message)
REPEATED_KEY_CASES = {
    "table_point": ("covariance", lambda s: s.update(symbol={"kind": "table", "entries": [
        {"point": [1], "value": 1}, {"point": [-1], "value": 1}, {"point": [[1.0, 0.0]], "value": 0}]}),
        "symbol.entries[2]: repeats an earlier entry's point"),
    "pair_function_pair": ("pd", lambda s: s.update(pd={"pair_function": dict(
        PAIR_FUNCTION, values=PAIR_FUNCTION["values"][:4] + [{"s": [0], "t": [1], "v": 9.0}])}),
        "pd.pair_function.values[4]: repeats an earlier entry's (s, t)"),
}


@pytest.mark.parametrize("case", list(REPEATED_KEY_CASES))
def test_repeated_table_keys_are_rejected(tmp_path, case):
    # a repeated key was read last-wins: the table symbol below vanished on an atom and covariance exited 0
    command, edit, message = REPEATED_KEY_CASES[case]
    scn = load_scenario_file("two_atoms_natadd1.json")
    edit(scn)
    code, out, _ = run_cli([command, write_scenario(tmp_path, scn, "")])
    assert code == 1
    assert json.loads(out)["error"] == {"code": "scenario_invalid", "message": message}


def first_atom_point(value):
    return lambda s: s["measure"]["atoms"][0].update(point=value)


def second_outcome(**fields):
    return lambda s: s["random_vector"]["outcomes"][1].update(fields)


# case: (command, scenario file or None for HALF_LINE_SCENARIO, edit, the whole error message); atoms and
# outcomes are read column by column, and a fault in them keeps the message of the row-by-row walk
INGESTION_CASES = {
    "bool_coordinate": ("covariance", "point_mass_natadd2.json", first_atom_point([[0.5, 0.0], [True, 0.0]]),
                        "measure.atoms[0].point[1]: expected [re, im] (or a bare real number)"),
    "bool_bare_coordinate": ("covariance", "two_atoms_natadd1.json", first_atom_point([False]),
                             "measure.atoms[0].point[0]: expected a complex number, got a boolean"),
    "bool_weight": ("covariance", "two_atoms_natadd1.json", lambda s: s["measure"]["atoms"][1].update(weight=[0.5, True]),
                    "measure.atoms[1].weight: expected [re, im] (or a bare real number)"),
    "ragged_points": ("covariance", "point_mass_natadd2.json", first_atom_point([[0.5, 0.0]]),
                      "measure: expected character point of length 2, got 1"),
    "wrong_length_point": ("covariance", "two_atoms_natadd1.json",
                           lambda s: [atom.update(point=[[0.5, 0.0], [0.25, 0.0]]) for atom in s["measure"]["atoms"]],
                           "measure: expected character point of length 1, got 2"),
    "empty_point": ("covariance", "two_atoms_natadd1.json", first_atom_point([]),
                    "measure.atoms[0].point: expected a nonempty array of complex coordinates"),
    "half_line_point": ("covariance", None,
                        lambda s: s["measure"]["atoms"].append({"point": [[-0.5, 0.0]], "weight": 1.0}),
                        "measure: half-line character points need Re z >= 0"),
    "empty_outcomes": ("random-vector", "random_vector_two_point.json", lambda s: s["random_vector"].update(outcomes=[]),
                       "random_vector: expected an object with a nonempty 'outcomes' array"),
    "bool_probability": ("random-vector", "random_vector_two_point.json", second_outcome(p=True),
                         "random_vector.outcomes[1].p: expected a probability"),
    "bool_x": ("random-vector", "random_vector_two_point.json", second_outcome(x=[[True, 0.0]]),
               "random_vector.outcomes[1].x[0]: expected [re, im] (or a bare real number)"),
    "ragged_outcomes": ("random-vector", "random_vector_two_point.json", second_outcome(x=[[1.0, 0.0], [0.0, 0.0]]),
                        "random_vector: all outcomes must share the vector dimension"),
    "negative_probability": ("random-vector", "random_vector_two_point.json", second_outcome(p=-0.5),
                             "random_vector: probabilities must be nonnegative"),
    "unknown_outcome_key": ("random-vector", "random_vector_two_point.json", second_outcome(q=1),
                            "random_vector.outcomes[1].q: unknown key; expected one of p, x, y"),
}


@pytest.mark.parametrize("case", list(INGESTION_CASES))
def test_atom_and_outcome_faults_keep_their_messages(tmp_path, case):
    command, source, edit, message = INGESTION_CASES[case]
    scn = json.loads(json.dumps(HALF_LINE_SCENARIO)) if source is None else load_scenario_file(source)
    edit(scn)
    code, out, _ = run_cli([command, write_scenario(tmp_path, scn, "")])
    assert code == 1
    assert json.loads(out)["error"] == {"code": "scenario_invalid", "message": message}


def test_bare_real_atoms_and_outcomes_read_like_pairs(tmp_path):
    pairs, bare = (load_scenario_file("two_atoms_natadd1.json") for _ in range(2))
    for atom in bare["measure"]["atoms"]:
        atom.update(point=[atom["point"][0][0]], weight=atom["weight"][0])
    rv_pairs, rv_bare = (load_scenario_file("random_vector_two_point.json") for _ in range(2))
    for outcome in rv_bare["random_vector"]["outcomes"]:
        outcome.update(x=[int(outcome["x"][0][0])], y=1)
    for command, a, b in (("covariance", pairs, bare), ("random-vector", rv_pairs, rv_bare)):
        got = run_cli([command, write_scenario(tmp_path, b, "")])
        assert got == run_cli([command, write_scenario(tmp_path, a, "")]) and got[0] == 0


def test_polynomial_symbol_index_must_match_point_dimension(tmp_path):
    with open(os.path.join(SCENARIOS, "point_mass_natadd2.json")) as fh:
        scn = json.load(fh)
    scn["symbol"] = {"kind": "poly", "terms": [{"m": [0, 0], "c": 1.0}, {"m": [1], "c": [1.0, 0.0]}]}
    assert_scenario_invalid(["covariance", write_scenario(tmp_path, scn, "")], "symbol.terms[1].m")


def load_scenario_file(name):
    with open(os.path.join(SCENARIOS, name)) as fh:
        return json.load(fh)


def poly_symbol(m):
    return {"kind": "poly", "terms": [{"m": [0], "c": 1.0}, {"m": m, "c": 0.5}]}


def at_origin(scn):
    scn["measure"]["atoms"][0]["point"] = [[0.0, 0.0]]


# case: (command, scenario file, edit, path in the error)
MULTI_INDEX_CASES = {
    "symbol_string": ("covariance", "two_atoms_natadd1.json", lambda s: s.update(symbol=poly_symbol(["a"])),
                      "symbol.terms[1].m[0]"),
    # with an atom at 0 a negative power divided by zero in covariance
    "symbol_negative": ("covariance", "two_atoms_natadd1.json",
                        lambda s: (at_origin(s), s.update(symbol=poly_symbol([-1]))), "symbol.terms[1].m[0]"),
    "symbol_fraction": ("covariance", "two_atoms_natadd1.json", lambda s: s.update(symbol=poly_symbol([1.5])),
                        "symbol.terms[1].m[0]"),
    "kernel_f": ("kernel", "kernel_extremal.json", lambda s: s["kernel"]["f"][1].update(m=[-1]), "kernel.f[1].m[0]"),
    "kernel_coefficient": ("kernel", "kernel_extremal.json",
                           lambda s: s["kernel"].update(kind="list", coefficients=[{"m": [0], "n": ["a"], "a": 1.0}]),
                           "kernel.coefficients[0].n[0]"),
}


@pytest.mark.parametrize("case", list(MULTI_INDEX_CASES))
def test_bad_multi_index_entries_are_rejected(tmp_path, case):
    command, source, edit, path_text = MULTI_INDEX_CASES[case]
    scn = load_scenario_file(source)
    edit(scn)
    assert_scenario_invalid([command, write_scenario(tmp_path, scn, "")], path_text)


@pytest.mark.parametrize("value", ['"x"', "0", "2.5"])
def test_random_vector_max_order_must_be_a_positive_int(tmp_path, value):
    scn = load_scenario_file("random_vector_two_point.json")
    scn["random_vector"]["max_order"] = "VALUE"
    assert_scenario_invalid(["random-vector", write_scenario(tmp_path, scn, value)], "random_vector.max_order")


def test_scenario_file_that_is_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(HALF_LINE_SCENARIO).encode("utf-16-le"))
    assert_scenario_invalid(["covariance", str(path)], "cannot read scenario")


def test_main_can_run_again_with_another_subcommand():
    # the parser is built once per process; each call must still parse its own argv
    runs = [("two_atoms_natadd1__covariance", ["covariance"]), ("two_atoms_natadd1__pd", ["pd"])] * 2
    for name, tail in runs:
        _, out, _ = run_cli(build_argv("two_atoms_natadd1.json", tail))
        with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
            assert out == fh.read()


@pytest.mark.parametrize(
    "argv,expected_code,stream,start",
    [(["--help"], 0, "out", "usage: lapcov"), (["--version"], 0, "out", "lapcov "),
     (["covariance"], 1, "err", "usage: lapcov covariance"), (["nope"], 1, "err", "usage: lapcov")],
)
def test_help_version_and_usage_errors_repeat(capsys, argv, expected_code, stream, start):
    printed = []
    for _ in range(2):
        assert main(argv, stdout=io.StringIO(), stderr=io.StringIO()) == expected_code
        captured = capsys.readouterr()
        printed.append(captured.out if stream == "out" else captured.err)
    assert printed[0] == printed[1]
    assert printed[0].startswith(start)


# pd section: the value of "pd", and the path the error must name
PD_SECTION_CASES = {
    "point_without_s": ({"points": [{"t": [0]}]}, "pd.points[0].s"),
    "points_not_a_list": ({"points": 5}, "pd.points"),
    "points_empty": ({"points": []}, "pd.points"),
    "point_not_an_object": ({"points": [3]}, "pd.points[0]"),
    "generator_without_a": ({"generator": {"b": [0]}}, "pd.generator.a"),
    "generator_not_an_object": ({"generator": 3}, "pd.generator"),
    "section_not_an_object": ([1, 2], "pd: expected an object"),
}


@pytest.mark.parametrize("case", list(PD_SECTION_CASES))
def test_bad_pd_sections_are_rejected(tmp_path, case):
    section, path_text = PD_SECTION_CASES[case]
    scn = load_scenario_file("two_atoms_natadd1.json")
    scn["pd"] = section
    assert_scenario_invalid(["pd", write_scenario(tmp_path, scn, "")], path_text)


# command sections with a misspelt key: (command, scenario file, section, key, value)
UNKNOWN_KEY_CASES = {
    "pd": ("pd", "two_atoms_natadd1.json", "pd", "pionts", [{"s": [2], "t": [1]}]),
    "toeplitz": ("toeplitz", "two_atoms_natadd1.json", "toeplitz", "matrix_ordr", 4),
    "prony": ("prony", "two_atoms_natadd1.json", "prony", "kmax", 3),
    "random_vector": ("random-vector", "random_vector_two_point.json", "random_vector", "max_ordr", 2),
    "kernel": ("kernel", "kernel_extremal.json", "kernel", "residual_tl", 1e-6),
}


@pytest.mark.parametrize("case", list(UNKNOWN_KEY_CASES))
def test_unknown_section_keys_are_rejected(tmp_path, case):
    command, source, section, key, value = UNKNOWN_KEY_CASES[case]
    scn = load_scenario_file(source)
    scn.setdefault(section, {})[key] = value
    assert_scenario_invalid([command, write_scenario(tmp_path, scn, "")], f"{section}.{key}")


PAIR_FUNCTION = {
    "grid": [[0], [1]],
    "values": [{"s": [s], "t": [t], "v": 0.5 ** (s + t)} for s in range(3) for t in range(3)],
}
TABLE_SYMBOL = {"kind": "table", "entries": [{"point": [1.0], "value": 1.0}, {"point": [-1.0], "value": 2.0}]}
KERNEL_TERM = {"m": [0], "n": [0], "a": 1.0, "aa": 0}

# a misspelt or extra key outside the command sections: (command, scenario file, edit, path in the error)
NESTED_UNKNOWN_KEY_CASES = {
    "semigroup": ("covariance", "two_atoms_natadd1.json", lambda s: s["semigroup"].update(dd=2), "semigroup.dd"),
    "semigroup_other_kind": ("covariance", "two_atoms_natadd1.json", lambda s: s["semigroup"].update(primes=2),
                             "semigroup.primes"),
    "measure": ("covariance", "two_atoms_natadd1.json", lambda s: s["measure"].update(atomz=[]), "measure.atomz"),
    "atom": ("covariance", "two_atoms_natadd1.json", lambda s: s["measure"]["atoms"][1].update(wieght=2.0),
             "measure.atoms[1].wieght"),
    "symbol_const": ("covariance", "two_atoms_natadd1.json", lambda s: s["symbol"].update(valeu=[2, 0]),
                     "symbol.valeu"),
    "symbol_poly": ("covariance", "two_atoms_natadd1.json", lambda s: s.update(symbol=dict(poly_symbol([1]), term=[])),
                    "symbol.term"),
    "symbol_poly_term": ("covariance", "two_atoms_natadd1.json",
                         lambda s: (s.update(symbol=poly_symbol([1])), s["symbol"]["terms"][1].update(cc=1)),
                         "symbol.terms[1].cc"),
    "symbol_table_entry": ("covariance", "two_atoms_natadd1.json",
                           lambda s: (s.update(symbol=TABLE_SYMBOL), s["symbol"]["entries"][0].update(vlaue=1)),
                           "symbol.entries[0].vlaue"),
    "tolerances": ("covariance", "two_atoms_natadd1.json", lambda s: s.update(tolerances={"residul": 1e-3}),
                   "tolerances.residul"),
    "kernel_f_term": ("kernel", "kernel_extremal.json", lambda s: s["kernel"]["f"][2].update(bb=1), "kernel.f[2].bb"),
    "kernel_coefficient_term": ("kernel", "kernel_extremal.json",
                                lambda s: s["kernel"].update(kind="list", coefficients=[KERNEL_TERM]),
                                "kernel.coefficients[0].aa"),
    "pd_generator": ("pd", "two_atoms_natadd1.json",
                     lambda s: s.update(pd={"generator": {"a": [1], "b": [0], "c": [2]}}), "pd.generator.c"),
    "pd_pair_function": ("pd", "two_atoms_natadd1.json",
                         lambda s: s.update(pd={"pair_function": dict(PAIR_FUNCTION, grdi=[[0]])}),
                         "pd.pair_function.grdi"),
    "pd_pair_function_value": ("pd", "two_atoms_natadd1.json",
                               lambda s: (s.update(pd={"pair_function": json.loads(json.dumps(PAIR_FUNCTION))}),
                                          s["pd"]["pair_function"]["values"][4].update(w=0)),
                               "pd.pair_function.values[4].w"),
    "pd_point": ("pd", "two_atoms_natadd1.json", lambda s: s.update(pd={"points": [{"s": [1], "t": [0], "u": [0]}]}),
                 "pd.points[0].u"),
    "pd_operator_term": ("pd", "two_atoms_natadd1.json",
                         lambda s: s.update(pd={"operators": [[{"a": [1], "b": [0], "coeff": 1.0, "coef": 1.0}]]}),
                         "pd.operators[0][0].coef"),
    "random_vector_outcome": ("random-vector", "random_vector_two_point.json",
                              lambda s: s["random_vector"]["outcomes"][1].update(q=0.5),
                              "random_vector.outcomes[1].q"),
    # a misspelt section would otherwise run with the default tolerances
    "top_level": ("covariance", "two_atoms_natadd1.json", lambda s: s.update(tolerance={"residual": 1000.0}),
                  "tolerance"),
}


@pytest.mark.parametrize("case", list(NESTED_UNKNOWN_KEY_CASES))
def test_unknown_nested_keys_are_rejected(tmp_path, case):
    command, source, edit, path_text = NESTED_UNKNOWN_KEY_CASES[case]
    scn = load_scenario_file(source)
    edit(scn)
    assert_scenario_invalid([command, write_scenario(tmp_path, scn, "")], f"{path_text}: unknown key")


@pytest.mark.parametrize("kind,key", [("nat_add", "d"), ("nat_mult", "primes")])
@pytest.mark.parametrize("value", ["1.9", '"1"'])
def test_semigroup_size_must_be_a_positive_int(tmp_path, kind, key, value):
    # int() would truncate 1.9 and parse "1", so both ran as a one-dimensional semigroup
    scn = load_scenario_file("two_atoms_natadd1.json")
    scn["semigroup"] = {"kind": kind, key: "VALUE"}
    assert_scenario_invalid(["covariance", write_scenario(tmp_path, scn, value)], f"semigroup.{key}")


def test_bergman_kernel_rejects_coefficients(tmp_path):
    # the Bergman kernel's coefficients are fixed; listed ones would be ignored
    scn = load_scenario_file("kernel_extremal.json")
    scn["kernel"]["coefficients"] = [{"m": [0], "n": [0], "a": 5.0}]
    assert_scenario_invalid(["kernel", write_scenario(tmp_path, scn, "")], "kernel.coefficients")


@pytest.mark.parametrize(
    "grid,path_text",
    [({"order": 3, "elements": [[1]]}, "grid: expected exactly one of"), ({"ordr": 3}, "grid.ordr"), ({}, "grid"),
     ({"elements": ["bad"]}, "grid.elements[0]: nat_add elements")],
)
def test_conflicting_or_unknown_grid_keys_are_rejected(tmp_path, grid, path_text):
    scn = load_scenario_file("two_atoms_natadd1.json")
    scn["grid"] = grid
    path = write_scenario(tmp_path, scn, "")
    # --grid-order overrides the grid only once the grid section is valid
    for flags in ([], FLAG_OVERRIDES["covariance"]):
        assert_scenario_invalid(["covariance", path] + flags, path_text)


@pytest.mark.parametrize(
    "command,source,edit,message",
    [
        ("covariance", "two_atoms_natadd1.json", lambda s: s.pop("semigroup"), "measure: needs a 'semigroup' section"),
        ("random-vector", "random_vector_two_point.json", lambda s: s.update(measure={"atoms": "x"}),
         "measure: needs a 'semigroup' section"),
        ("random-vector", "random_vector_two_point.json", lambda s: s.update(grid={"order": 2}),
         "grid: needs a 'semigroup' section"),
    ],
)
def test_measure_or_grid_without_semigroup_is_rejected(tmp_path, command, source, edit, message):
    # each was dropped without a word: the command then ran, or asked for a measure it had been given
    scn = load_scenario_file(source)
    edit(scn)
    assert_scenario_invalid([command, write_scenario(tmp_path, scn, "")], message)


@pytest.mark.parametrize("entry", ["1.5", "2.0", "true", '"1"'])
def test_nat_add_element_entries_must_be_ints(tmp_path, entry):
    # a fractional entry was truncated by int(): [1.5] ran as the element [1]
    scn = load_scenario_file("two_atoms_natadd1.json")
    scn["grid"] = {"elements": [[0], ["VALUE"], [2]]}
    assert_scenario_invalid(["covariance", write_scenario(tmp_path, scn, entry)],
                            "grid.elements[1][0]: expected an integer")
    argv = build_argv("two_atoms_natadd1.json", ["toeplitz", "--moments-csv", str(tmp_path / "m.csv"),
                                                 "--csv-element", f"[{entry}]"])
    assert_scenario_invalid(argv, "--csv-element[0]: expected an integer")


@pytest.mark.parametrize(
    "section,message",
    [("symbol", "symbol: expected an object with a 'kind' field"), ("grid", "grid: expected an object"),
     ("tolerances", "tolerances: expected an object")],
)
def test_null_sections_are_rejected(tmp_path, section, message):
    # each once fell back to its defaults (F == 1, the default grid, the default tolerances)
    scn = load_scenario_file("two_atoms_natadd1.json")
    scn[section] = None
    assert_scenario_invalid(["covariance", write_scenario(tmp_path, scn, "")], message)


def test_symbol_without_semigroup_is_rejected(tmp_path):
    # multi-indices of two lengths went unchecked and the symbol was never used
    scn = load_scenario_file("random_vector_two_point.json")
    scn["symbol"] = {"kind": "poly", "terms": [{"m": [0], "c": 1}, {"m": [0, 1], "c": 1}]}
    assert_scenario_invalid(["random-vector", write_scenario(tmp_path, scn, "")], "symbol: needs a 'semigroup' section")


def test_pd_validates_every_given_key(tmp_path):
    # the generator is checked even where the operators take its place, and pair-function
    # grid elements are named by their own path
    scn = load_scenario_file("two_atoms_natadd1.json")
    scn["pd"] = {"operators": [[{"a": [1], "b": [0], "coeff": 1.0}]], "generator": {"a": "x", "b": [0]}}
    assert_scenario_invalid(["pd", write_scenario(tmp_path, scn, "")], "pd.generator.a: nat_add elements")
    scn["pd"] = {"pair_function": dict(PAIR_FUNCTION, grid=[[0], [-1]])}
    assert_scenario_invalid(["pd", write_scenario(tmp_path, scn, "")], "pd.pair_function.grid[1]: ")


@pytest.mark.parametrize("command", [c for c in cli._COMMANDS if c != "toeplitz"])
def test_matrix_order_is_a_toeplitz_flag_only(capsys, command):
    code, out, _ = run_cli(build_argv("two_atoms_natadd1.json", [command, "--matrix-order", "5"]))
    assert code == 1 and out == ""
    assert "unrecognized arguments: --matrix-order" in capsys.readouterr().err


def test_toeplitz_route_builds_one_character_matrix_per_command(monkeypatch):
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    # the lapcov.toeplitz binding sites: a per-element rebuild inside the module counts too
    for name in ("character_matrix", "symbol_values", "disc_measure", "moment_matrices", "toeplitz_matrix"):
        monkeypatch.setattr(toeplitz, name, counted(name, getattr(toeplitz, name)))
    for name in ("disc_measure", "moment_matrices", "toeplitz_matrix"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    per_grid = {"character_matrix": 1, "symbol_values": 1, "moment_matrices": 1}
    for tail, expected in (
        (["toeplitz", "--matrix-order", "6"], dict(per_grid, toeplitz_matrix=1)),
        (["prony", "--k-max", "4"], per_grid),
    ):
        calls.clear()
        code, out, _ = run_cli(build_argv("two_atoms_natadd1.json", tail))
        assert code == 0 and len(json.loads(out)["per_element"]) == 4
        assert calls == expected, tail[0]


def test_transform_builds_one_character_matrix(monkeypatch):
    # rows and columns are the same grid, so the row matrix serves as the column matrix
    calls = []
    original = laplace.character_matrix
    monkeypatch.setattr(laplace, "character_matrix", lambda *args: calls.append(args) or original(*args))
    name, scenario, tail, _ = GOLDEN_CASES[2]
    code, out, _ = run_cli(build_argv(scenario, tail))
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        assert code == 0 and out == fh.read()
    assert len(calls) == 1


def test_prony_takes_character_scales_from_the_disc_measures(monkeypatch):
    # disc_measures already divided by 2 (1 + sup-norm); no per-element sup_norm is needed
    def forbidden(*args):
        raise AssertionError("sup_norm called")

    monkeypatch.setattr(toeplitz, "sup_norm", forbidden)
    monkeypatch.setattr(measures, "sup_norm", forbidden)
    name, scenario, tail, _ = GOLDEN_CASES[5]
    code, out, _ = run_cli(build_argv(scenario, tail))
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        assert code == 0 and out == fh.read()
    assert any(entry["character_from_atom"] is not None for entry in json.loads(out)["per_element"])


def test_prony_pencil_error_comes_from_the_first_failing_element(monkeypatch):
    # a rank tolerance this small keeps noise directions in the pencil of elements [1] and [3]
    argv = build_argv("two_atoms_natadd1.json", ["prony", "--rank-tol", "1e-300"])
    scenario = load_scenario(argv[1])
    failing = []
    for i, s in enumerate(scenario.grid.elements):
        nu = reference_disc_measure(scenario.measure, scenario.symbol, s)
        try:
            toeplitz.prony_recover(reference_prony_table(nu, 6), rel_tol=1e-300)
        except RankDeficientPencil:
            failing.append(i)
    assert len(failing) > 1

    seen = []
    original = cli.prony_recover

    def recording(table, **kwargs):
        seen.append(table)
        return original(table, **kwargs)

    monkeypatch.setattr(cli, "prony_recover", recording)
    code, out, err = run_cli(argv)
    assert code == 1
    message = "restricted moment pencil is numerically singular"
    assert json.loads(out) == {"error": {"code": "rank_deficient_pencil", "message": message}}
    assert err == f"error: {message}\n"
    assert len(seen) == failing[0] + 1


def test_cmd_prony_raises_the_singular_pencil_of_element_2(monkeypatch):
    # elements 2 and 4 get an unshifted block with singular values 1 and 5e-14: both count at
    # --rank-tol 1e-15 and the second is below 1e-13, so each pencil is singular; element 2 raises
    argv = build_argv("point_mass_natadd2.json", ["prony", "--rank-tol", "1e-15"])
    original_tables = cli.moment_matrices

    def planted(nus, order, rows=None):
        tables = original_tables(nus, order, rows)
        for i in (2, 4):
            tables[i] = 0.0
            tables[i][0, 0], tables[i][1, 1] = 1.0, 5e-14
        return tables

    seen = []
    original_recover = cli.prony_recover

    def recording(table, **kwargs):
        seen.append(table)
        return original_recover(table, **kwargs)

    monkeypatch.setattr(cli, "moment_matrices", planted)
    monkeypatch.setattr(cli, "prony_recover", recording)
    scenario = load_scenario(argv[1], {"--rank-tol": "1e-15"})
    with pytest.raises(RankDeficientPencil, match="restricted moment pencil is numerically singular"):
        cli._cmd_prony(scenario, cli.build_parser().parse_args(argv))
    assert len(seen) == 3


def test_a_prony_op_does_not_call_np_linalg_lstsq(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    name, scenario, tail, _ = GOLDEN_CASES[5]
    code, out, _ = run_cli(build_argv(scenario, tail))
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        assert code == 0 and out == fh.read()


# F = z^2 - z/4 - 1/8 vanishes exactly on both atoms, so every disc measure is zero
VANISHING_SYMBOL = {
    "semigroup": {"kind": "nat_add", "d": 1},
    "measure": {"atoms": [{"point": [[0.5, 0.0]], "weight": [1.0, 0.0]}, {"point": [[-0.25, 0.0]], "weight": [2.0, 0.0]}]},
    "symbol": {"kind": "poly", "terms": [{"m": [0], "c": [-0.125, 0.0]}, {"m": [1], "c": [-0.25, 0.0]}, {"m": [2], "c": [1.0, 0.0]}]},
}


@pytest.mark.parametrize("command", ["prony", "toeplitz"])
@pytest.mark.parametrize("name", ["vanishing_symbol_natadd1", "zero_mass_natadd1"])
def test_empty_atom_lists_and_null_characters_keep_their_bytes(tmp_path, name, command):
    # every element of rank 0, or ranks 0 and 2 on a zero-mass measure: empty ragged rows and all-null character columns
    path = tmp_path / "vanishing.json"
    path.write_text(json.dumps(VANISHING_SYMBOL))
    source = str(path) if name == "vanishing_symbol_natadd1" else os.path.join(SCENARIOS, name + ".json")
    outputs = [run_cli([command, source, "--format", fmt]) for fmt in ("json", "text")]
    for (code, out, _), suffix in zip(outputs, (".json", ".txt")):
        with open(os.path.join(DATA, "pinned", f"{name}__{command}{suffix}"), encoding="utf-8") as fh:
            assert code == 0 and out == fh.read()
    rows = json.loads(outputs[0][1])["per_element"]
    if command == "toeplitz":
        assert all(row["luecking_agree"] for row in rows)
    else:
        assert all(row["character_from_atom"] is row["character_direct"] is row["route_difference"] is None for row in rows)
        assert [len(row["atoms"]) for row in rows] == [row["rank"] for row in rows]
        assert {row["rank"] for row in rows} == ({0} if name == "vanishing_symbol_natadd1" else {0, 2})


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_moments_csv_to_an_unwritable_path_is_output_unwritable(tmp_path, target):
    path = str(tmp_path / "missing" / "m.csv") if target == "missing_directory" else str(tmp_path)
    code, out, err = run_cli(build_argv("two_atoms_natadd1.json", ["toeplitz", "--moments-csv", path]))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "output_unwritable"
    assert error["message"].startswith(f"--moments-csv: cannot write {path}: ")
    assert err == f"error: {error['message']}\n"


@pytest.mark.parametrize("value", ["1", "10", "1e300"])
@pytest.mark.parametrize("flag", ["--tol-mass", "--rank-tol"])
def test_relative_tolerances_of_one_or_more_are_rejected(flag, value):
    # a mass bound >= 1 calls every measure massless; a rank bound >= 1 gives rank 0 everywhere
    for command in ("recover", "toeplitz", "prony"):
        argv = build_argv("two_atoms_natadd1.json", [command, f"{flag}={value}"])
        assert_scenario_invalid(argv, f"{flag}: expected a positive number below 1")


@pytest.mark.parametrize("key", ["mass", "rank"])
def test_scenario_relative_tolerances_of_one_are_rejected(tmp_path, key):
    with open(os.path.join(SCENARIOS, "two_atoms_natadd1.json")) as fh:
        scn = json.load(fh)
    scn["tolerances"] = {key: 1}
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(scn))
    assert_scenario_invalid(["prony", str(path)], f"tolerances.{key}: expected a positive number below 1")


def test_a_residual_tolerance_above_one_is_accepted():
    # the normalized residual can exceed 1, so only mass and rank are bounded by 1
    code, out, _ = run_cli(build_argv("two_atoms_natadd1.json", ["covariance", "--tol-res", "10"]))
    assert code == 0 and "error" not in json.loads(out)


def test_unexpected_exceptions_become_internal_errors(monkeypatch):
    def broken(scenario, args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "covariance", cli._COMMANDS["covariance"]._replace(run=broken))
    code, out, err = run_cli(build_argv("two_atoms_natadd1.json", ["covariance"]))
    assert code == 1
    assert json.loads(out) == {"error": {"code": "internal_error", "message": "RuntimeError: boom"}}
    assert "Traceback" not in err


def test_non_finite_report_values_become_internal_errors(monkeypatch):
    # a non-finite float reaching the emitter is reported, not raised
    nan_report = cli._COMMANDS["covariance"]._replace(run=lambda scenario, args: ({"value": float("nan")}, 0, ""))
    monkeypatch.setitem(cli._COMMANDS, "covariance", nan_report)
    code, out, _ = run_cli(build_argv("two_atoms_natadd1.json", ["covariance"]))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "internal_error"


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupt_and_exit_are_not_caught(monkeypatch, exc):
    def interrupted(scenario, args):
        raise exc()

    monkeypatch.setitem(cli._COMMANDS, "covariance", cli._COMMANDS["covariance"]._replace(run=interrupted))
    with pytest.raises(exc):
        run_cli(build_argv("two_atoms_natadd1.json", ["covariance"]))


# every toolkit error type and the code the command line reports for it
ERROR_CODES = {
    LapcovError: "internal_error",
    GridTooLarge: "grid_too_large",
    PrimeOutOfRange: "prime_out_of_range",
    ZeroWeightAtom: "zero_weight_atom",
    SymbolUndefinedAtAtom: "symbol_undefined",
    MissingGridValue: "missing_grid_value",
    MassZero: "mass_zero",
    FMuIntegralZero: "f_mu_integral_zero",
    RankDeficientPencil: "rank_deficient_pencil",
    ExpectationYZero: "expectation_y_zero",
    NumericOverflow: "numeric_overflow",
    OutputUnwritable: "output_unwritable",
    ScenarioError: "scenario_invalid",
}


def error_types(base=LapcovError):
    return {base}.union(*(error_types(sub) for sub in base.__subclasses__()))


def test_every_error_type_declares_a_distinct_code():
    assert error_types() == set(ERROR_CODES)
    assert {t: t.code for t in ERROR_CODES} == ERROR_CODES
    assert len(set(ERROR_CODES.values())) == len(ERROR_CODES)


@pytest.mark.parametrize("error_type", list(ERROR_CODES), ids=lambda t: t.__name__)
def test_main_reports_the_code_its_error_type_declares(monkeypatch, error_type):
    def failing(scenario, args):
        raise error_type("went wrong")

    monkeypatch.setitem(cli._COMMANDS, "covariance", cli._COMMANDS["covariance"]._replace(run=failing))
    code, out, err = run_cli(build_argv("two_atoms_natadd1.json", ["covariance"]))
    assert code == 1
    assert json.loads(out) == {"error": {"code": ERROR_CODES[error_type], "message": "went wrong"}}
    assert err == "error: went wrong\n"


def test_recover_on_zero_mass_is_a_mass_zero_error():
    code, out, _ = run_cli(build_argv("zero_mass_natadd1.json", ["recover"]))
    assert code == 1
    message = "total mass is numerically zero; nothing to recover"
    assert json.loads(out) == {"error": {"code": "mass_zero", "message": message}}


NAT_MULT_POINT_MASS = {
    "semigroup": {"kind": "nat_mult", "primes": 2},
    "measure": {"atoms": [{"point": [[0.5, 0.1], [0.25, -0.3]], "weight": [1.5, 0.5]}]},
    "symbol": {"kind": "poly", "terms": [{"m": [0, 0], "c": [1.0, 0.0]}, {"m": [1, 1], "c": [0.5, 0.25]}]},
}


@pytest.mark.parametrize("family", ["nat_add", "nat_mult", "half_line"])
def test_recover_and_covariance_print_the_same_point_mass(tmp_path, family):
    if family == "nat_add":
        path = os.path.join(SCENARIOS, "point_mass_natadd2.json")
    else:
        path = write_scenario(tmp_path, NAT_MULT_POINT_MASS if family == "nat_mult" else HALF_LINE_SCENARIO, "")
    # numbers stay strings, so equal fields are equal bytes
    reports = {}
    for command in ("recover", "covariance"):
        code, out, _ = run_cli([command, path])
        assert code == 0
        reports[command] = json.loads(out, parse_float=str, parse_int=str)
    assert reports["covariance"]["verdict"] == "point_mass"
    for key in ("c", "zeta", "zeta_resolved", "multiplicativity_defect", "gamma"):
        assert reports["recover"][key] == reports["covariance"][key], key
    assert reports["recover"]["zeta_resolved"] is True


@pytest.mark.parametrize("relative_mass,vanishes", [(1e-11, True), (1e-9, False)])
def test_every_command_applies_the_same_mass_gate(tmp_path, relative_mass, vanishes):
    # atoms of weight 1 and -(1 - 2m) leave mass 2m against sum |w| = 2 - 2m; tol.mass is 1e-10
    scn = load_scenario_file("kernel_extremal.json")
    scn["measure"]["atoms"] = [
        {"point": [[0.1, 0.0]], "weight": [1.0, 0.0]},
        {"point": [[0.2, 0.0]], "weight": [-(1.0 - 2 * relative_mass), 0.0]},
    ]
    path = write_scenario(tmp_path, scn, "")
    outcomes = {command: run_cli([command, path]) for command in ("covariance", "recover", "kernel")}
    assert (outcomes["covariance"][0] == 2) is vanishes
    assert ("mass_zero" in outcomes["recover"][1]) is vanishes
    assert (json.loads(outcomes["kernel"][1]).get("reason") == "measure_mass_zero") is vanishes


def test_kernel_reads_the_scenario_grid(tmp_path):
    # the identity alone cannot resolve zeta, on the moment route of kernel as on covariance
    scn = load_scenario_file("kernel_extremal.json")
    scn["grid"] = {"elements": [[0]]}
    path = write_scenario(tmp_path, scn, "")
    assert json.loads(run_cli(["covariance", path])[1])["zeta_resolved"] is False
    code, out, _ = run_cli(["kernel", path])
    report = json.loads(out)
    assert (code, report["verdict"], report["reason"]) == (0, "inconclusive", "point_unresolved")
    # a grid order flag replaces those elements, so zeta resolves again
    code, out, _ = run_cli(["kernel", path, "--grid-order", "2"])
    assert (code, json.loads(out)["verdict"]) == (0, "extremal")


@pytest.mark.parametrize("series,coefficient", [("f", "b"), ("coefficients", "a")])
def test_repeated_kernel_series_indices_add_up(tmp_path, series, coefficient):
    # like a poly symbol's terms: a series split into two terms of one index reads as the unsplit series
    scn = load_scenario_file("kernel_extremal.json")
    # the file's bergman kernel, written out as a list kernel
    terms = [{"m": [m], "n": [m], "a": [m + 1.0, 0.0]} for m in range(scn["kernel"]["truncation"] + 1)]
    scn["kernel"].update(kind="list", coefficients=terms)
    whole = run_cli(["kernel", write_scenario(tmp_path, scn, "")])
    assert json.loads(whole[1])["verdict"] == "extremal"
    first, *rest = scn["kernel"][series]
    half = dict(first, **{coefficient: [value / 2 for value in first[coefficient]]})
    scn["kernel"][series] = [half] + rest + [half]
    assert run_cli(["kernel", write_scenario(tmp_path, scn, "")]) == whole


def overflow_measure(d, big, **extra):
    points = [[[big, 0.0]] * d, [[0.5, 0.0]] * d]
    atoms = [{"point": point, "weight": [1.0, 0.0]} for point in points]
    return {"semigroup": {"kind": "nat_add", "d": d}, "measure": {"atoms": atoms}, **extra}


OVERFLOW_SCENARIOS = {
    # a complex power overflows
    "power": overflow_measure(1, 1e200),
    # each power is finite, their product is not
    "product": overflow_measure(2, 1e160, grid={"order": 1}),
    "random_vector": {
        "random_vector": {
            "outcomes": [{"p": 0.5, "x": [[1e160, 0.0]], "y": [1.0, 0.0]}, {"p": 0.5, "x": [[0.5, 0.0]], "y": [1.0, 0.0]}],
        },
    },
    "kernel": {
        "semigroup": {"kind": "nat_add", "d": 1},
        "measure": {"atoms": [{"point": [[1e160, 0.0]], "weight": [2.0, 0.0]}]},
        "kernel": {"kind": "bergman", "truncation": 4, "f": [{"m": [0], "b": [1.0, 0.0]}]},
    },
    # F = 1e300 z^2 overflows at z = 1e10, and |F|^2 at z = 0.5
    "symbol": overflow_measure(1, 1e10, grid={"order": 1}, symbol={"kind": "poly", "terms": [{"m": [2], "c": [1e300, 0]}]}),
    # F = 1e200 is finite, |F|^2 is not; covariance reads F normalized, and overflows only when it scales
    # the witness residual back
    "symbol_squared": overflow_measure(1, 2.0, grid={"order": 1}, symbol={"kind": "poly", "terms": [{"m": [0], "c": [1e200, 0]}]}),
    # |F|^2 w = 1e300 is finite, its products with character values are not (covariance reads them
    # normalized: test_covariance_reads_huge_or_tiny_factors_at_their_own_scale)
    "charge_times_character": overflow_measure(1, 10.0, symbol={"kind": "poly", "terms": [{"m": [0], "c": [1e150, 0]}]}),
    # the residual is finite on tiny weights, the square of max |F rho| in its scale is not
    "residual_scale": {
        "semigroup": {"kind": "nat_add", "d": 1},
        "measure": {"atoms": [{"point": [[20.0, 0.0]], "weight": [1e-20, 0.0]}, {"point": [[0.5, 0.0]], "weight": [1e-20, 0.0]}]},
        "symbol": {"kind": "poly", "terms": [{"m": [0], "c": [1e150, 0]}]},
    },
    # each charge F w = 1e308 is finite, their sum, the transform value at (e, e), is not
    "pair_table": overflow_measure(1, 0.25, symbol={"kind": "poly", "terms": [{"m": [0], "c": [1e308, 0]}]}),
    # a kernel coefficient whose square overflows
    "kernel_coefficient": {
        "semigroup": {"kind": "nat_add", "d": 1},
        "measure": {"atoms": [{"point": [[0.1, 0.0]], "weight": [1.0, 0.0]}]},
        "kernel": {
            "kind": "list",
            "coefficients": [{"m": [0], "n": [0], "a": 1e300}, {"m": [1], "n": [1], "a": 1.0}],
            "f": [{"m": [0], "b": [1, 0]}],
        },
    },
}
MEASURE_COMMANDS = ["covariance", "recover", "transform", "toeplitz", "prony", "pd"]
OVERFLOW_CASES = [(name, command) for name in ("power", "product", "symbol") for command in MEASURE_COMMANDS]
OVERFLOW_CASES += [("symbol_squared", command) for command in ("covariance", "toeplitz", "prony")]
OVERFLOW_CASES += [("charge_times_character", "prony"), ("pair_table", "pd"), ("pair_table", "transform")]
OVERFLOW_CASES += [("random_vector", "random-vector"), ("kernel", "kernel"), ("kernel_coefficient", "kernel")]


@pytest.mark.parametrize("name,command", OVERFLOW_CASES)
def test_overflow_is_a_numeric_overflow_error(tmp_path, name, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # an overflow is reported, not warned about
        code, out, err = run_cli([command, write_scenario(tmp_path, OVERFLOW_SCENARIOS[name], "")])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "numeric_overflow"
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["charge_times_character", "residual_scale"])
def test_covariance_reads_huge_or_tiny_factors_at_their_own_scale(tmp_path, name):
    # the residual of F = 1e150 on weights 1 or 1e-20 is formed from F and the weights normalized, so
    # it refutes the measure as F * 2**-500 does, with the witness residual scaled back by 2**1000
    def covariance(scenario):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(["covariance", write_scenario(tmp_path, scenario, "")])
        return code, json.loads(out)

    scenario = OVERFLOW_SCENARIOS[name]
    smaller = json.loads(json.dumps(scenario))
    smaller["symbol"]["terms"][0]["c"][0] *= 2.0**-500
    (code, report), (small_code, small) = covariance(scenario), covariance(smaller)
    assert (code, small_code, report["verdict"]) == (0, 0, "not_point_mass")
    assert [math.ldexp(part, 1000) for part in small.pop("residual")] == report.pop("residual")
    assert report == small


def atom_at_two(weight):
    return {
        "semigroup": {"kind": "nat_add", "d": 1},
        "measure": {"atoms": [{"point": [[2.0, 0.0]], "weight": [weight, 0.0]}]},
    }


def point_mass_natadd2(weight):
    scenario = load_scenario_file("point_mass_natadd2.json")
    scenario["measure"]["atoms"][0]["weight"] = [weight, 0.0]
    return scenario


# (scenario at a weight, a subnormal weight, the normal weight that normalizes to the same bits): at weight
# 1e-320 the F-integral is subnormal and numpy's complex division by it overflowed; point_mass_natadd2 at
# 2**-1059 was refuted with a witness residual of 0 (covariance) or ended in numeric_overflow (recover)
SUBNORMAL_CASES = {
    "atom_at_two": (atom_at_two, 1e-320, math.ldexp(1e-320, 1074)),
    "point_mass_natadd2": (point_mass_natadd2, 2.0**-1059, 2.0),
}


@pytest.mark.parametrize("case", sorted(SUBNORMAL_CASES))
@pytest.mark.parametrize("command", ["covariance", "recover"])
def test_a_subnormal_weight_is_a_point_mass(tmp_path, command, case):
    # read from the normalized weight, the point mass is that of the normal weight, c in its own units
    scenario, tiny_weight, weight = SUBNORMAL_CASES[case]

    def run(w):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli([command, write_scenario(tmp_path, scenario(w), "")])
        assert (code, "Traceback" in err) == (0, False)
        return json.loads(out)

    tiny, whole = run(tiny_weight), run(weight)
    assert (tiny.pop("c"), whole.pop("c")) == ([tiny_weight, 0], [weight, 0])
    assert tiny == whole
    assert tiny.get("verdict", "point_mass") == "point_mass"


@pytest.mark.parametrize("command", ["prony"])
def test_a_subnormal_weight_is_a_numeric_overflow_error(tmp_path, command):
    # the Toeplitz/Prony route reads the disc measures in the measure's own units: the pencil of the
    # subnormal moments overflows, though each true atom is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli([command, write_scenario(tmp_path, atom_at_two(1e-320), "")])
    assert code == 1
    message = "a restricted pencil overflows the float range"
    assert json.loads(out)["error"] == {"code": "numeric_overflow", "message": message}
    assert err == f"error: {message}\n"


def test_a_tiny_symbol_does_not_certify_two_atoms(tmp_path):
    # at F = 2**-600, w |F|^2 = 2**-1201 underflowed and an exact 0 residual certified the pair; the
    # normalized F refutes it as F = 1 does, and the witness residual, 1 * 2**-1200, underflows to 0
    def covariance(value):
        code, out, _ = run_cli(["covariance", scenario_file(tmp_path, "two_atoms_natadd1.json", lambda scn: scn["symbol"].update(value=[value, 0.0]))])
        return code, json.loads(out)

    (code, tiny), (_, whole) = covariance(2.0**-600), covariance(1.0)
    assert (code, tiny["verdict"], tiny["max_residual"]) == (0, "not_point_mass", 2)
    assert (tiny.pop("residual"), whole.pop("residual")) == ([0, 0], [1, 0])
    assert tiny == whole


def scaled_kernel_pair(tmp_path, s, f_factor):
    """kernel_extremal.json with its weight times s**2 and f times ``f_factor``."""
    def edit(scn):
        atom = scn["measure"]["atoms"][0]
        atom["weight"] = [atom["weight"][0] * s * s, 0.0]
        for term in scn["kernel"]["f"]:
            term["b"] = [term["b"][0] * f_factor, 0.0]

    code, out, _ = run_cli(["kernel", scenario_file(tmp_path, "kernel_extremal.json", edit)])
    assert code == 0
    return json.loads(out)


def test_kernel_verdicts_do_not_depend_on_scale(tmp_path):
    # the kernel equation's residual was judged absolutely (1e-8): at s = 1e4 the extremal pair was
    # refuted by a residual of 2.1e-7, and at s = 1e-5 an f of twice the kernel side passed with 6.8e-10
    large = scaled_kernel_pair(tmp_path, 1e4, 1e4)
    assert (large["verdict"], large["reason"]) == ("extremal", None)
    assert large["c"][0] == pytest.approx(2e8, rel=1e-12) and large["zeta"][0][0] == pytest.approx(0.1, rel=1e-12)
    twice = scaled_kernel_pair(tmp_path, 1e-5, 2e-5)
    assert (twice["verdict"], twice["reason"], twice["c"]) == ("not_extremal", None, None)
    assert twice["max_residual"] == pytest.approx(6.8e-10, rel=0.01)


def test_a_huge_witness_residual_is_a_numeric_overflow_error(tmp_path):
    # F = 1e200 on two atoms: the normalized residual is finite, the witness residual scaled back is not
    code, out, _ = run_cli(["covariance", write_scenario(tmp_path, OVERFLOW_SCENARIOS["symbol_squared"], "")])
    message = "the witness residual overflows the float range"
    assert (code, json.loads(out)["error"]) == (1, {"code": "numeric_overflow", "message": message})


def test_transform_and_pd_name_one_overflow(tmp_path):
    # both read the pair function through laplace.charge_block, which owns its finiteness check
    path = write_scenario(tmp_path, OVERFLOW_SCENARIOS["pair_table"], "")
    message = "a pair-function value overflows the float range"
    for command in ("transform", "pd"):
        code, out, err = run_cli([command, path])
        assert (code, json.loads(out)["error"], err) == (1, {"code": "numeric_overflow", "message": message}, f"error: {message}\n")


def moment_overflow_measure(semigroup, d):
    """Atoms at 0.5 and 0.25 under F = 1e154: each charge |F|^2 w = 1e308 is finite, the moments they add to are not."""
    atoms = [{"point": [[p, 0.0]] * d, "weight": [1.0, 0.0]} for p in (0.5, 0.25)]
    symbol = {"kind": "poly", "terms": [{"m": [0] * d, "c": [1e154, 0]}]}
    return {"semigroup": semigroup, "measure": {"atoms": atoms}, "symbol": symbol}


MOMENT_OVERFLOW_SCENARIOS = {
    "nat_add1": moment_overflow_measure({"kind": "nat_add", "d": 1}, 1),
    "nat_add2": moment_overflow_measure({"kind": "nat_add", "d": 2}, 2),
    "nat_mult2": moment_overflow_measure({"kind": "nat_mult", "primes": 2}, 2),
}


@pytest.mark.parametrize("name", sorted(MOMENT_OVERFLOW_SCENARIOS))
@pytest.mark.parametrize("command", ["toeplitz", "prony"])
def test_a_moment_stack_that_overflows_never_reaches_lapack(tmp_path, name, command):
    # LAPACK's SVD of the NaN stack failed (toeplitz) or never ended (prony); a
    # fresh process bounds the run and shows every warning printed on stderr
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "lapcov.cli", command, write_scenario(tmp_path, MOMENT_OVERFLOW_SCENARIOS[name], "")]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 1
    assert json.loads(result.stdout)["error"]["code"] == "numeric_overflow"
    assert "RuntimeWarning" not in result.stderr and "Traceback" not in result.stderr


NAT_MULT3_SCENARIO = {
    "semigroup": {"kind": "nat_mult", "primes": 3},
    "measure": {"atoms": [{"point": [[0.5, 0.1], [0.2, 0.0], [0.3, -0.2]], "weight": [1.0, 0.0]}]},
}
NAT_ADD2_SCENARIO = {
    "semigroup": {"kind": "nat_add", "d": 2},
    "measure": {"atoms": [{"point": [[0.5, 0.1], [0.2, 0.0]], "weight": [1.0, 0.0]}]},
}
RANDOM_VECTOR_DIM2 = {
    "random_vector": {
        "outcomes": [
            {"p": 0.5, "x": [[1.0, 0.0], [0.5, 0.0]], "y": [1.0, 0.0]},
            {"p": 0.5, "x": [[0.0, 0.0], [0.2, 0.0]], "y": [1.0, 0.0]},
        ],
        "max_order": 10,
    }
}
# three atoms that stay apart at elements 1 and 3, so their pencils have rank 3
THREE_ATOMS_NATADD1 = {
    "semigroup": {"kind": "nat_add", "d": 1},
    "measure": {"atoms": [{"point": [[0.9, 0.0]], "weight": [1.0, 0.0]}, {"point": [[-0.9, 0.0]], "weight": [1.0, 0.0]},
                          {"point": [[0.0, 0.9]], "weight": [1.0, 0.0]}]},
    "grid": {"elements": [[1], [3]]},
}
# (argv tail, scenario, message): the two runaway tables of a nat_mult pd closure and
# a fine nat_add grid, and the moment and Prony design stacks of a large matrix
# order, at sizes that a bound lowered to 1000 entries refuses
GRID_121 = "a grid of 121 elements has 14641 pairs, more than the supported 1000"
PAIR_BOUND_CASES = {
    "pd_closure": (["pd"], NAT_MULT3_SCENARIO, "a grid closure of 125 elements has 15625 pairs, more than the supported 1000"),
    "grid_order": (["covariance", "--grid-order", "10"], NAT_ADD2_SCENARIO, GRID_121),
    "max_order": (["random-vector"], RANDOM_VECTOR_DIM2, GRID_121),
    "toeplitz_moments": (["toeplitz", "--matrix-order", "19"], THREE_ATOMS_NATADD1,
                         "a moment stack of 3 matrices of 19 x 19 has 1083 entries, more than the supported 1000"),
    "prony_moments": (["prony", "--k-max", "18"], THREE_ATOMS_NATADD1,
                      "a moment stack of 3 matrices of 19 x 18 has 1026 entries, more than the supported 1000"),
    "prony_design": (["prony", "--k-max", "15"], THREE_ATOMS_NATADD1,
                     "a Prony design stack of 2 designs of 240 x 3 has 1440 entries, more than the supported 1000"),
}


@pytest.mark.parametrize("case", PAIR_BOUND_CASES)
def test_a_grid_past_the_pair_bound_is_grid_too_large(tmp_path, monkeypatch, case):
    tail, scn, message = PAIR_BOUND_CASES[case]
    monkeypatch.setattr(semigroups, "_MAX_PAIR_ENTRIES", 1000)
    code, out, err = run_cli([tail[0], write_scenario(tmp_path, scn, "")] + tail[1:])
    assert code == 1
    assert json.loads(out)["error"] == {"code": "grid_too_large", "message": message}
    assert "Traceback" not in err


@pytest.mark.parametrize("command,flag", [("toeplitz", "--matrix-order"), ("prony", "--k-max")])
def test_a_matrix_order_past_the_bound_is_grid_too_large_before_anything_is_allocated(command, flag):
    code, out, err = run_cli(build_argv("two_atoms_natadd1.json", [command, flag, "100000"]))
    assert code == 1
    rows = 100000 if command == "toeplitz" else 100001
    assert json.loads(out)["error"] == {
        "code": "grid_too_large",
        "message": f"a moment stack of 4 matrices of {rows} x 100000 has {4 * rows * 100000} entries, "
        f"more than the supported {semigroups._MAX_PAIR_ENTRIES}",
    }
    assert "Traceback" not in err


@pytest.mark.parametrize("command", MEASURE_COMMANDS)
def test_a_half_line_element_near_the_float_maximum_is_grid_too_large(tmp_path, command):
    scn = {**HALF_LINE_SCENARIO, "grid": {"elements": [1e308, 0.5]}}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the closure's sums must not overflow
        code, out, err = run_cli([command, write_scenario(tmp_path, scn, "")])
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "grid_too_large",
        "message": "half_line grid elements exceed the supported range",
    }
    assert "Traceback" not in err
