"""Every command against every scenario-key flag: a flag the command takes is parsed, any other is a usage error.

The flags are read from ``lapcov.scenario.SECTIONS``, which spells each one on
the key it overrides; a command takes the flags of the sections named in its
``lapcov.cli._COMMANDS`` entry.  Each flag gets hostile values.  A flag the
command takes must end in a ``scenario_invalid`` error that names it, in a
report (exit 0 or 2), or, for a count that sizes a table, in the
``grid_too_large`` refusal of that table; any other flag is a usage error
(exit 1, nothing on stdout).  Nothing ends in ``internal_error`` or a
traceback.
"""

import json
import os

import pytest

import lapcov.cli as cli
from lapcov.scenario import SECTIONS, Section, positive_int
from test_cli import GOLDEN_CASES, SCENARIOS, run_cli

# flag -> the leaf parser of the key it overrides (a kind-picked table has no flags)
FLAG_LEAVES = {
    flag: table.fields[key][0]
    for table in SECTIONS.values()
    if isinstance(table, Section)
    for key, flag in table.flags.items()
}
HOSTILE_VALUES = ["nan", "inf", "1e999", "0", "-1", "1.5", str(2**63), "9" * 5000, "", "x"]
# the scenario file each command's golden case reads
SCENARIO_OF = {}
for _, scenario, tail, _ in GOLDEN_CASES:
    SCENARIO_OF.setdefault(tail[0], scenario)

METAVARS = {
    "--grid-order": "GRID_ORDER",
    "--tol-mass": "TOL_MASS",
    "--tol-res": "TOL_RES",
    "--rank-tol": "RANK_TOL",
    "--matrix-order": "MATRIX_ORDER",
    "--k-max": "K_MAX",
}
# a command takes the flags of the scenario sections it reads
EXPECTED_FLAGS = {
    "transform": {"--grid-order"},
    "pd": {"--grid-order"},
    "covariance": {"--grid-order", "--tol-mass", "--tol-res", "--rank-tol"},
    "recover": {"--grid-order", "--tol-mass", "--tol-res", "--rank-tol"},
    "kernel": {"--grid-order", "--tol-mass", "--tol-res", "--rank-tol"},
    "toeplitz": {"--grid-order", "--tol-mass", "--tol-res", "--rank-tol", "--matrix-order"},
    "prony": {"--grid-order", "--tol-mass", "--tol-res", "--rank-tol", "--k-max"},
    "random-vector": {"--tol-mass", "--tol-res", "--rank-tol"},
}


def taken_flags(command: str) -> set:
    return {flag for section in cli._COMMANDS[command].sections for flag in SECTIONS[section].flags.values()}


def test_the_six_scenario_key_flags_are_declared_in_sections():
    assert set(FLAG_LEAVES) == {"--grid-order", "--tol-mass", "--tol-res", "--rank-tol", "--matrix-order", "--k-max"}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_takes_the_flags_of_the_sections_it_reads(capsys, command):
    assert taken_flags(command) == EXPECTED_FLAGS[command]
    assert run_cli([command, "--help"])[0] == 0
    help_text = capsys.readouterr().out
    # each flag it takes is listed with the metavar it has always had, and no other is listed
    assert {flag for flag in FLAG_LEAVES if flag in help_text} == EXPECTED_FLAGS[command]
    for flag in EXPECTED_FLAGS[command]:
        assert f"{flag} {METAVARS[flag]}" in help_text


def test_no_scenario_key_flag_is_spelled_in_the_cli():
    with open(cli.__file__, encoding="utf-8") as handle:
        source = handle.read()
    assert [flag for flag in FLAG_LEAVES if flag in source] == []


@pytest.mark.parametrize("flag", list(FLAG_LEAVES))
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_hostile_flag_values_end_in_a_report_or_a_named_error(capsys, command, flag):
    path = os.path.join(SCENARIOS, SCENARIO_OF[command])
    taken = flag in EXPECTED_FLAGS[command]
    for value in HOSTILE_VALUES:
        code, out, err = run_cli([command, path, f"{flag}={value}"])
        usage = capsys.readouterr().err  # argparse writes its usage errors to sys.stderr
        shown = value[:20]
        assert "Traceback" not in err + usage, (flag, shown)
        if not taken:
            assert (code, out) == (1, ""), (flag, shown)
            assert f"unrecognized arguments: {flag}" in usage
            continue
        report = json.loads(out)
        if "error" not in report:
            assert code in (0, 2), (flag, shown)
            continue
        error = report["error"]
        assert code == 1
        if error["code"] == "grid_too_large":
            assert FLAG_LEAVES[flag] is positive_int, (flag, shown)
        else:
            assert error["code"] == "scenario_invalid", (flag, shown, error)
            assert error["message"].startswith(f"{flag}: "), (flag, shown, error)
