"""Per-layer spans for the traced run.

``install`` replaces the public functions that the command line reaches, in
each treedensity module, with wrappers that record a span (name, start, end,
parent span, op id, raised) while an op is running. A name is replaced
everywhere it is bound, because callers bind some names at import
(``cli.count_copies``, ``frontier.combine_caterpillar_counts``).
Self-recursive functions are timed at the outermost call and keep their
stack depth: ``CopyEngine.count`` through ``count_copies``, its entry point,
and ``make_even_binary`` only where its callers bind it.
``combine_caterpillar_counts``, called once per DP candidate, is counted
without a span. Frontier cache I/O has no public function, so the counters
for it wrap ``ParetoDP._load_level`` and ``ParetoDP._store_level``.
"""

from __future__ import annotations

import functools
import json
import operator
import time
from collections import Counter
from math import comb

# (name, unit), in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.errors", "count"),
    ("trees.parse.calls", "count"),
    ("trees.parse.self_s", "s"),
    ("trees.build.calls", "count"),
    ("trees.build.self_s", "s"),
    ("trees.leaves", "count"),
    ("trees.code_chars", "count"),
    ("trees.errors", "count"),
    ("counting.recursion.calls", "count"),
    ("counting.recursion.self_s", "s"),
    ("counting.recursion.errors", "count"),
    ("counting.brute.calls", "count"),
    ("counting.brute.self_s", "s"),
    ("counting.brute.subsets", "count"),
    ("counting.caterpillar_counts.calls", "count"),
    ("counting.caterpillar_counts.self_s", "s"),
    ("counting.combine.calls", "count"),
    ("counting.errors", "count"),
    ("formulas.calls", "count"),
    ("formulas.self_s", "s"),
    ("formulas.errors", "count"),
    ("search.enumerate.calls", "count"),
    ("search.enumerate.self_s", "s"),
    ("search.trees_enumerated", "count"),
    ("search.report.calls", "count"),
    ("search.report.self_s", "s"),
    ("search.errors", "count"),
    ("frontier.run.calls", "count"),
    ("frontier.run.self_s", "s"),
    ("frontier.levels", "count"),
    ("frontier.candidates", "count"),
    ("frontier.keep_ratio", "ratio"),
    ("frontier.frontier_size_max", "count"),
    ("frontier.cache_files_read", "count"),
    ("frontier.cache_files_written", "count"),
    ("frontier.cache_bytes_written", "bytes"),
    ("frontier.errors", "count"),
    ("simplex.eval_exact.calls", "count"),
    ("simplex.eval_exact.self_s", "s"),
    ("simplex.minimize.calls", "count"),
    ("simplex.minimize.self_s", "s"),
    ("simplex.nm_evals", "count"),
    ("simplex.converged_ratio", "ratio"),
    ("simplex.sup_scan.self_s", "s"),
    ("simplex.muirhead.self_s", "s"),
    ("simplex.errors", "count"),
    ("reporting.render.calls", "count"),
    ("reporting.render.self_s", "s"),
    ("reporting.bytes", "bytes"),
    ("reporting.errors", "count"),
    ("trace.overhead_frac", "fraction"),
]

SPAN_NAMES = {
    "cli.main", "trees.parse", "trees.build", "counting.recursion", "counting.brute",
    "counting.caterpillar_counts", "formulas", "search.enumerate", "search.report",
    "frontier.run", "simplex.eval_exact", "simplex.minimize", "simplex.sup_scan",
    "simplex.muirhead", "reporting.render",
}


class Tracer:
    def __init__(self):
        self.op_id: int | None = None
        self.spans: list = []
        self.counts: Counter = Counter()
        self.size_max = 0
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped to record a span while an op runs."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            spans.append(None)
            tracer._stack.append(idx)
            tracer._open[name] += 1
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op_id, raised)
            if on_result is not None:
                on_result(result, *args)
            return result

        return traced

    def counter(self, fn, on_result):
        """``fn`` wrapped to update counters, without a span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.op_id is not None:
                on_result(result, *args)
            return result

        return counted

    def in_span(self, name: str) -> bool:
        return self._open[name] > 0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        errors: Counter = Counter()
        for i, (name, start, end, _parent, _op, raised) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if raised:
                errors[name.split(".")[0]] += 1
                errors[name] += 1
        c = self.counts
        out: dict[str, float] = {}
        for metric, _unit in LAYER_METRICS:
            base, field = metric.rsplit(".", 1)
            if base in SPAN_NAMES and field == "calls":
                out[metric] = calls[base]
            elif base in SPAN_NAMES and field == "self_s":
                out[metric] = self_s[base]
            elif field == "errors":
                out[metric] = errors[base]
            else:
                out[metric] = c[metric]
        out["frontier.keep_ratio"] = (
            c["frontier.kept"] / c["frontier.candidates"] if c["frontier.candidates"] else 0.0
        )
        out["frontier.frontier_size_max"] = self.size_max
        minimize = calls["simplex.minimize"]
        out["simplex.converged_ratio"] = c["simplex.converged"] / minimize if minimize else 0.0
        out["trace.overhead_frac"] = overhead_frac
        return out


def install(tracer: Tracer) -> None:
    import treedensity
    from treedensity import cli, counting, formulas, frontier, reporting, search, simplex, trees

    modules = (treedensity, cli, counting, formulas, frontier, reporting, search, simplex, trees)
    c = tracer.counts

    def patch(home, attr: str, wrapper_of, *, at_home: bool = True) -> None:
        original = getattr(home, attr)
        wrapper = wrapper_of(original)
        for m in modules:
            if m.__dict__.get(attr) is original and (at_home or m is not home):
                setattr(m, attr, wrapper)

    def spanned(name, on_result=None):
        return lambda fn: tracer.span(name, fn, on_result)

    def counted(on_result):
        return lambda fn: tracer.counter(fn, on_result)

    def tree_made(t, *args):
        c["trees.leaves"] += t.leaf_count
        c["trees.code_chars"] += len(t.code)

    def brute_done(count, pattern, tree, *args):
        if pattern.leaf_count <= tree.leaf_count:
            c["counting.brute.subsets"] += comb(tree.leaf_count, pattern.leaf_count)

    def combined(result, *args):
        c["counting.combine.calls"] += 1
        if tracer.in_span("frontier.run"):
            c["frontier.candidates"] += 1

    def run_done(fronts, *args):
        c["frontier.levels"] += fronts.max_n()
        tracer.size_max = max(
            [tracer.size_max] + [fronts.frontier_size(n) for n in range(1, fronts.max_n() + 1)]
        )

    def pruned(kept, *args):
        c["frontier.kept"] += len(kept)

    def loaded(level, *args):
        if level is not None:
            c["frontier.cache_files_read"] += 1

    def stored(_none, dp, n):
        if dp.cache_dir is not None:
            c["frontier.cache_files_written"] += 1
            c["frontier.cache_bytes_written"] += dp._cache_file(n).stat().st_size

    def minimized(result, *args):
        c["simplex.nm_evals"] += result.evaluations
        c["simplex.converged"] += bool(result.converged)

    def rendered(text, *args):
        c["reporting.bytes"] += len(text.encode())

    patch(cli, "main", spanned("cli.main"))
    patch(trees, "parse_tree", spanned("trees.parse", tree_made))
    for attr in ("make_caterpillar", "make_complete"):
        patch(trees, attr, spanned("trees.build", tree_made))
    patch(trees, "make_even_binary", spanned("trees.build", tree_made), at_home=False)
    patch(counting, "count_copies", spanned("counting.recursion"))
    patch(counting, "count_copies_brute", spanned("counting.brute", brute_done))
    patch(counting, "caterpillar_counts", spanned("counting.caterpillar_counts"))
    patch(counting, "combine_caterpillar_counts", counted(combined))
    for attr in formulas.__all__:
        patch(formulas, attr, spanned("formulas"))
    patch(search, "enumerate_trees", spanned(
        "search.enumerate",
        lambda it, *a: c.update({"search.trees_enumerated": operator.length_hint(it)}),
    ))
    for attr in ("search_min_report", "verify_even_conjecture", "verify_monotone_min"):
        patch(search, attr, spanned("search.report"))
    frontier.ParetoDP.run = tracer.span("frontier.run", frontier.ParetoDP.run, run_done)
    frontier.ParetoDP._load_level = tracer.counter(frontier.ParetoDP._load_level, loaded)
    frontier.ParetoDP._store_level = tracer.counter(frontier.ParetoDP._store_level, stored)
    patch(frontier, "pareto_minimal", counted(pruned))
    patch(simplex, "eval_F", spanned("simplex.eval_exact"))
    patch(simplex, "minimize_F", spanned("simplex.minimize", minimized))
    patch(simplex, "sup_boundary_scan", spanned("simplex.sup_scan"))
    patch(simplex, "muirhead_check", spanned("simplex.muirhead"))
    patch(reporting, "render_report", spanned("reporting.render", rendered))
