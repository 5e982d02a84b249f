"""Benchmark-side tracing of lapcov's layers.

``Tracer.install`` wraps public lapcov functions where the CLI and the
engine look them up (for example ``lapcov.cli.decide_covariance`` and
``lapcov.laplace.recover_point_mass``) and records one span per call: name,
parent span, op, start and end.  A layer's self time is its span minus the
spans of the calls it made.  Counts come from argument and return shapes.
Per-entry helpers such as ``char_eval`` and ``combine`` are not wrapped.
Spans stay in memory (up to a cap) and are written out once at the end.
A binding site that does not exist is an error: its layer would otherwise
read zero, which looks like a gain.
"""

import importlib
import time
from collections import Counter
from contextlib import contextmanager

SPAN_CAP = 20000


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _atoms_in(args, kwargs):
    return len(args[0].atoms)


def _count_atoms(tracer, args, kwargs, result, before):
    tracer.counts["atoms_in"] += before
    tracer.counts["atoms_out"] += len(args[0].atoms)


def _count_grid(tracer, args, kwargs, result, before):
    tracer.counts["grids"] += 1
    tracer.counts["grid_size"] += len(args[0].elements)
    tracer.counts["closure_size"] += len(args[0].pairs_closure)


def _count_entries(tracer, args, kwargs, result, before):
    tracer.counts["character_entries"] += result.size


def _count_bytes(tracer, args, kwargs, result, before):
    tracer.counts["report_bytes"] += len(result.encode("utf-8"))


def _count_pair_entries(tracer, args, kwargs, result, before):
    tracer.counts["pair_entries"] += len(result.values)


def _count_gram_lookups(tracer, args, kwargs, result, before):
    tracer.counts["pair_lookups"] += len(_arg(args, kwargs, 1, "points")) ** 2


def _count_semichar_lookups(tracer, args, kwargs, result, before):
    tracer.counts["pair_lookups"] += 1 + 3 * len(_arg(args, kwargs, 1, "points")) ** 2


def _count_bv_lookups(tracer, args, kwargs, result, before):
    tracer.counts["pair_lookups"] += sum(len(op.terms) for op in _arg(args, kwargs, 1, "operators"))


def _count_disc(tracer, args, kwargs, result, before):
    if tracer.cmd == "toeplitz":
        tracer.counts["toeplitz_cmd_disc_measures"] += 1


def _count_element(tracer, args, kwargs, result, before):
    if tracer.cmd == "toeplitz":
        tracer.counts["toeplitz_cmd_elements"] += 1


def _count_prony(tracer, args, kwargs, result, before):
    tracer.counts["prony_rank1"] += result.rank == 1


# layer name, binding sites (module, attribute), counter, pre-call state
PATCHES = (
    ("scenario.load", (("lapcov.cli", "load_scenario"),), None, None),
    ("measures.construct", (("lapcov.measures", "AtomicMeasure.__post_init__"),), _count_atoms, _atoms_in),
    (
        "measures.symbol_values",
        (("lapcov.laplace", "symbol_values"), ("lapcov.toeplitz", "symbol_values"), ("lapcov.shifts", "symbol_values")),
        None,
        None,
    ),
    (
        "semigroups.character_matrix",
        (("lapcov.laplace", "character_matrix"), ("lapcov.toeplitz", "character_matrix"), ("lapcov.shifts", "character_matrix")),
        _count_entries,
        None,
    ),
    ("laplace.grid_build", (("lapcov.laplace", "EvaluationGrid.__post_init__"),), _count_grid, None),
    ("laplace.defect", (("lapcov.cli", "multiplicativity_defect"), ("lapcov.laplace", "multiplicativity_defect")), None, None),
    ("laplace.resolve", (("lapcov.cli", "resolve_point"), ("lapcov.laplace", "resolve_point")), None, None),
    ("laplace.recover", (("lapcov.cli", "recover_point_mass"), ("lapcov.laplace", "recover_point_mass")), None, None),
    (
        "laplace.decide",
        (("lapcov.cli", "decide_covariance"), ("lapcov.randomvectors", "decide_covariance"), ("lapcov.kernels", "decide_covariance")),
        None,
        None,
    ),
    ("laplace.degenerate", (("lapcov.laplace", "degenerate_check"),), None, None),
    ("laplace.transform", (("lapcov.cli", "laplace_transform"),), None, None),
    ("report.dumps", (("lapcov.cli", "dumps"),), _count_bytes, None),
    ("shifts.pair_function", (("lapcov.cli", "pair_function_from_measure"),), _count_pair_entries, None),
    ("shifts.pd_check", (("lapcov.cli", "positive_definite_check"),), _count_gram_lookups, None),
    ("shifts.semichar", (("lapcov.cli", "semicharacter_defect"),), _count_semichar_lookups, None),
    ("shifts.bv_norm", (("lapcov.cli", "bv_norm"),), _count_bv_lookups, None),
    ("toeplitz.disc_measure", (("lapcov.cli", "disc_measure"), ("lapcov.toeplitz", "disc_measure")), _count_disc, None),
    ("toeplitz.toeplitz_matrix", (("lapcov.cli", "toeplitz_matrix"), ("lapcov.toeplitz", "toeplitz_matrix")), None, None),
    ("toeplitz.luecking", (("lapcov.cli", "luecking_check"),), _count_element, None),
    ("toeplitz.rank_one", (("lapcov.cli", "rank_one_check"),), None, None),
    ("toeplitz.prony", (("lapcov.cli", "prony_recover"),), _count_prony, None),
    ("randomvectors.decide", (("lapcov.cli", "decide_constant_vector"),), None, None),
    ("kernels.recover", (("lapcov.cli", "kernel_recover"),), None, None),
)


class Tracer:
    """In-memory span recorder with per-layer call, total and self-time sums."""

    def __init__(self):
        self.stats = {}          # name -> [calls, total seconds, self seconds]
        self.counts = Counter()
        self.spans = []          # (op, span id, parent id, name, start, end)
        self.dropped = 0
        self.covered = 0.0       # time in spans directly under a root span
        self.op = None
        self.cmd = None
        self._stack = []         # [span id, seconds spent in child spans]
        self._next_id = 0
        self._restore = []

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
                if len(self._stack) == 1:
                    self.covered += duration
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            if len(self.spans) < SPAN_CAP:
                self.spans.append((self.op, span_id, parent, name, start, end))
            else:
                self.dropped += 1

    def _wrap(self, name, fn, counter, before):
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counter:
                counter(tracer, args, kwargs, result, state)
            return result

        return wrapper

    def install(self):
        """Wrap every binding site; a site that does not exist raises ``LookupError``."""
        for name, sites, counter, before in PATCHES:
            for module_name, attr in sites:
                *path, leaf = attr.split(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                except (ImportError, AttributeError) as exc:
                    self.uninstall()
                    raise LookupError(f"binding site {module_name}.{attr} of layer {name} not found") from exc
                setattr(owner, leaf, self._wrap(name, original, counter, before))
                self._restore.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def export(self) -> dict:
        return {
            "stats": self.stats,
            "counts": dict(self.counts),
            "covered": self.covered,
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def merge(self, other: dict, op):
        """Fold in the export of a tracer that ran in another process."""
        for name, (calls, total, self_time) in other["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_time
        for key, value in other["counts"].items():
            self.counts[key] += value
        self.covered += other["covered"]
        for _, span_id, parent, name, start, end in other["spans"]:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((op, span_id, parent, name, start, end))
            else:
                self.dropped += 1
        self.dropped += other["dropped"]


def _self_ms(tracer, name, ops):
    return 1e3 * tracer.stats.get(name, (0, 0.0, 0.0))[2] / ops if ops else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer numbers: self time in ms per traced op, counts per traced op, ratios."""
    c = tracer.counts
    calls = {name: entry[0] for name, entry in tracer.stats.items()}
    ms = {
        "measures.construct_ms": "measures.construct",
        "measures.symbol_values_ms": "measures.symbol_values",
        "semigroups.character_matrix_ms": "semigroups.character_matrix",
        "laplace.grid_build_ms": "laplace.grid_build",
        "laplace.defect_ms": "laplace.defect",
        "laplace.resolve_ms": "laplace.resolve",
        "laplace.recover_ms": "laplace.recover",
        "laplace.decide_self_ms": "laplace.decide",
        "laplace.degenerate_ms": "laplace.degenerate",
        "laplace.transform_ms": "laplace.transform",
        "report.dumps_ms": "report.dumps",
        "shifts.pair_function_ms": "shifts.pair_function",
        "shifts.pd_check_ms": "shifts.pd_check",
        "shifts.semichar_ms": "shifts.semichar",
        "shifts.bv_norm_ms": "shifts.bv_norm",
        "toeplitz.disc_measure_ms": "toeplitz.disc_measure",
        "toeplitz.toeplitz_matrix_ms": "toeplitz.toeplitz_matrix",
        "toeplitz.luecking_ms": "toeplitz.luecking",
        "toeplitz.rank_one_ms": "toeplitz.rank_one",
        "toeplitz.prony_ms": "toeplitz.prony",
        "scenario.load_ms": "scenario.load",
        "cli.self_ms": "cli",
        "randomvectors.decide_self_ms": "randomvectors.decide",
        "kernels.recover_self_ms": "kernels.recover",
    }
    out = {metric: _self_ms(tracer, name, ops) for metric, name in ms.items()}
    out.update(
        {
            "measures.atoms_in": _ratio(c["atoms_in"], ops),
            "measures.atoms_out": _ratio(c["atoms_out"], ops),
            "measures.merge_ratio": _ratio(c["atoms_out"], c["atoms_in"]),
            "semigroups.character_entries": _ratio(c["character_entries"], ops),
            "laplace.grid_size": _ratio(c["grid_size"], c["grids"]),
            "laplace.closure_size": _ratio(c["closure_size"], c["grids"]),
            "laplace.transform_calls": _ratio(calls.get("laplace.transform", 0), ops),
            "report.bytes": _ratio(c["report_bytes"], ops),
            "shifts.pair_entries": _ratio(c["pair_entries"], ops),
            "shifts.pair_lookups": _ratio(c["pair_lookups"], ops),
            "shifts.pair_used_frac": _ratio(c["pair_lookups"], c["pair_entries"]),
            "toeplitz.disc_measure_calls": _ratio(calls.get("toeplitz.disc_measure", 0), ops),
            "toeplitz.disc_measures_per_element": _ratio(c["toeplitz_cmd_disc_measures"], c["toeplitz_cmd_elements"]),
            "toeplitz.prony_rank1_frac": _ratio(c["prony_rank1"], calls.get("toeplitz.prony", 0)),
        }
    )
    return out
