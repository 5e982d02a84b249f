"""Every lapcov binding site that the benchmark's tracer wraps must exist and keep its contract.

``perfbench/layers.py`` wraps functions where the CLI and the engine look
them up (``lapcov.cli.rank_one_check`` and so on) and its counters read their
arguments and results.  Renaming or removing one of them, or changing what a
counted call returns, would fail only the benchmark; these tests fail it here
first.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

import lapcov.cli as cli

from test_cli import GOLDEN_CASES, build_argv, run_cli

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_binding_site(layers):
    original = cli.rank_one_check
    tracer = layers.Tracer()
    tracer.install()  # raises LookupError naming a missing binding site
    try:
        assert cli.rank_one_check is not original
    finally:
        tracer.uninstall()
    assert cli.rank_one_check is original


def traced_run(layers, argv):
    tracer = layers.Tracer()
    tracer.cmd = argv[0]
    tracer.install()
    try:
        with tracer.span("cli"):
            result = run_cli(argv)
    finally:
        tracer.uninstall()
    return tracer, result


@pytest.mark.parametrize("name,scenario,tail,expected_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_traced_commands_match_untraced_runs(layers, name, scenario, tail, expected_code):
    argv = build_argv(scenario, tail)
    code, out, _ = run_cli(argv)
    tracer, (traced_code, traced_out, _) = traced_run(layers, argv)
    assert (traced_code, traced_out) == (code, out)
    assert code == expected_code
    calls = {layer: entry[0] for layer, entry in tracer.stats.items()}
    if tail[0] == "toeplitz":
        elements = len(json.loads(out)["per_element"])
        assert calls["toeplitz.luecking"] == elements
        assert tracer.counts["toeplitz_cmd_elements"] == elements
    if tail[0] == "prony":
        per_element = json.loads(out)["per_element"]
        assert calls["toeplitz.prony"] == len(per_element)
        # the counter reads PronyResult.rank
        assert tracer.counts["prony_rank1"] == sum(entry["rank"] == 1 for entry in per_element)


# layers that no golden invocation reaches: the CLI no longer calls these binding sites
# (laplace_transform and the one-element disc_measure, which only --moments-csv uses)
UNCALLED_LAYERS = {"laplace.transform", "toeplitz.disc_measure"}


def test_golden_invocations_reach_every_traced_layer(layers):
    # a refactor that stops calling a binding site would otherwise zero its layer in the benchmark
    called = set()
    for _, scenario, tail, expected_code in GOLDEN_CASES:
        tracer, (code, _, _) = traced_run(layers, build_argv(scenario, tail))
        assert code == expected_code
        called |= set(tracer.stats)
    assert {name for name, *_ in layers.PATCHES} - called == UNCALLED_LAYERS


BINDING_ONLY = "noqa: F401  (a {} binding that perfbench/layers.py traces)"


def test_binding_only_imports_are_binding_sites(layers):
    # an import kept only for the tracer (cli's laplace_transform, multiplicativity_defect and resolve_point,
    # shifts' character_matrix) must go once its layer is bound elsewhere, and stays unread by its module
    sites = {site for _, layer_sites, *_ in layers.PATCHES for site in layer_sites}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        module, source = f"lapcov.{path.stem}", path.read_text(encoding="utf-8")
        names = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)]
        read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
        for line in source.splitlines():
            code, _, comment = line.partition("#")
            if "noqa: F401" in comment:
                assert comment.strip() == BINDING_ONLY.format(module), line
                name = code.strip().rstrip(",")
                assert (module, name) in sites, f"{module}.{name} is kept for a layer that no longer traces it"
                assert name not in read, f"{module} reads {name} itself, so its import is more than a binding site"
