"""Every lapcov binding site that the benchmark's tracer wraps must exist.

``perfbench/layers.py`` wraps functions where the CLI and the engine look
them up (``lapcov.cli.rank_one_check`` and so on).  Renaming or removing one
of them would fail only the benchmark; this test fails it here first.
"""

import importlib.util
from pathlib import Path

import lapcov.cli as cli

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_tracer_installs_and_uninstalls_every_binding_site():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    original = cli.rank_one_check
    tracer = layers.Tracer()
    tracer.install()  # raises LookupError naming a missing binding site
    try:
        assert cli.rank_one_check is not original
    finally:
        tracer.uninstall()
    assert cli.rank_one_check is original
