"""Spans around the package's public calls, timed from outside the package.

``instrumented(tracer)`` wraps the public functions that the CLI
subcommands call, for as long as the block runs, and opens the root span
``cli.op``.  Inside the block the op calls ``mereoml.cli.main(argv)``
itself, so the spans time the program's own call sequence and its output is
the CLI's output.  Nothing in ``mereoml`` is instrumented; the wrappers are
installed on the module (or class) attribute that the calling code looks
up, and removed again when the block ends.

Span names are ``<layer>.<stage>``.  The self time of ``cli.op`` is the
work of no wrapped call: argument parsing, the CLI's and ``run_decider``'s
own glue, payload building and JSON encoding.  Counts are taken from the
wrapped calls' arguments and return values.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from functools import cached_property
from time import perf_counter

from mereoml import cli, dataset, geometry, granulation, inclusion, logic, net


class Tracer:
    """Spans (name, start, end, parent index) and counts of one op, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        for _, start, end, parent in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out


@contextmanager
def _replaced(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _spanned(t: Tracer, name: str, fn, count=None):
    """``fn`` inside a span; ``count(args, result)`` adds to the counts."""

    def wrapped(*args, **kwargs):
        with t.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(args, result)
        return result

    return wrapped


def _matrix(t: Tracer, original: cached_property) -> cached_property:
    """``dis_counts`` in a span, with its size and tracemalloc peak."""

    def dis_counts(incl):
        with t.span("inclusion.matrix"):
            tracemalloc.start()
            try:
                value = original.func(incl)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        t.peaks["inclusion.matrix_peak_mb"] = max(t.peaks["inclusion.matrix_peak_mb"], peak)
        n, m = len(incl._table.rows), len(incl._table.features)
        t.count("inclusion.matrix_pairs", n * n)
        # the n x n x m boolean layer stack plus the n x n int16 result
        t.count("inclusion.matrix_bytes", n * n * m + 2 * n * n)
        return value

    prop = cached_property(dis_counts)
    prop.__set_name__(inclusion.LukasiewiczInclusion, "dis_counts")
    return prop


def _wrappers(t: Tracer):
    """(owner, attribute, replacement) for every call the spans cover."""
    c = t.count

    def cells(args, system):
        c("dataset.cells", len(system.objects) * (len(system.features) + 1))

    def granules(args, built):
        c("granulation.granules_built", len(built))
        c("granulation.granule_members", sum(len(g.members) for g in built))

    def meaning(formula, system):
        c("logic.meaning_evals", len(system.objects))
        return original_meaning(formula, system)

    def network(args, result):
        c("net.universe_rows", sum(len(a.system.rows) for layer in result.layers for a in layer))

    def steps(args, log):
        c("geometry.steps", log.steps[-1].step)
        c("geometry.cells", log.field.nx * log.field.ny)

    original_meaning = logic.meaning
    specs = [
        (cli, "load_csv", "dataset.load", cells),
        (cli, "discretize", "dataset.discretize", None),
        (dataset.DecisionSystem, "subset", "dataset.subset", None),
        (granulation, "stratified_folds", "granulation.folds", None),
        (granulation, "all_granules", "granulation.granules", granules),
        (granulation, "irreducible_covering", "granulation.covering",
         lambda a, r: c("granulation.covering_size", len(r.granules))),
        (granulation, "granular_mirror", "granulation.mirror",
         lambda a, r: c("granulation.mirror_rows", len(r.rows))),
        (granulation, "classify_many", "granulation.classify",
         lambda a, r: c("granulation.test_rows", len(a[1]))),
        (logic, "parse_formula", "logic.parse", None),
        (logic, "extension", "logic.extension", None),
        (logic, "is_true_at", "logic.truth", None),
        (logic, "is_valid", "logic.valid", None),
        (net, "load_network", "net.load", network),
        (net, "propagate", "net.propagate",
         lambda a, r: c("net.targets_scanned",
                        sum(len(ag.targets) for layer in a[0].layers for ag in layer))),
        (geometry, "load_world", "geometry.load", None),
        (geometry, "parse_formation", "geometry.load", None),
        (geometry, "build_potential", "geometry.potential", None),
        (geometry, "navigate", "geometry.navigate", steps),
        (geometry, "write_trajectory_csv", "geometry.write", None),
        (geometry, "write_trajectory_svg", "geometry.write", None),
    ]
    out = [(owner, attr, _spanned(t, name, getattr(owner, attr), count))
           for owner, attr, name, count in specs]
    out.append((logic, "meaning", meaning))
    out.append((inclusion.LukasiewiczInclusion, "dis_counts",
                _matrix(t, inclusion.LukasiewiczInclusion.dis_counts)))
    return out


@contextmanager
def instrumented(tracer: Tracer):
    """While the block runs, the public calls open spans under ``cli.op``."""
    with ExitStack() as stack:
        for owner, attr, replacement in _wrappers(tracer):
            stack.enter_context(_replaced(owner, attr, replacement))
        with tracer.span("cli.op"):
            yield
