"""Every one-fault mutant of the test scenarios prints what the message corpus records.

Regenerate the corpus with ``python tests/scenario_errors.py`` after an
intentional message change, and name each moved entry in the change's notes.
"""

import pytest

import scenario_errors
from test_cli import GOLDEN_CASES


@pytest.fixture(scope="module")
def corpus():
    return scenario_errors.load()


@pytest.mark.parametrize("name,scenario,tail", [c[:3] for c in GOLDEN_CASES], ids=[c[0] for c in GOLDEN_CASES])
def test_mutants_print_the_recorded_messages(tmp_path, corpus, name, scenario, tail):
    entries = scenario_errors.case_entries(scenario, tail, str(tmp_path))
    assert list(entries) == list(corpus[name])
    moved = {label: (corpus[name][label], entry) for label, entry in entries.items() if corpus[name][label] != entry}
    assert not moved
