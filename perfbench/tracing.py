"""In-memory spans and work counters recorded around the package's layers.

`Tracer.install()` replaces public functions and methods of the `essc`
package with wrappers that record a span (name, start, end, parent,
case id) and update counters, then `Tracer.uninstall()` puts the
originals back. Spans are recorded only while a case is open, so the
benchmark's own output checks, which call the same functions, leave no
trace. The package runs in one thread, so no layer ever waits on
another and the trace has no wait spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import essc.bench
import essc.cli
import essc.detect
import essc.metrics
import essc.significance
from essc.graph import MultiGraph

# (owner, attribute, span name). Owners are modules or classes. A function
# is patched where its callers look it up: `essc.cli` imported its own
# names, and `essc.detect.essc` serves the library loop.
TARGETS = [
    (essc.cli, "parse_edge_list", "graph.parse_edge_list"),
    (MultiGraph, "from_pair_arrays", "graph.from_pair_arrays"),
    (MultiGraph, "boundary_counts", "graph.boundary_counts"),
    (MultiGraph, "volume", "graph.volume"),
    (essc.significance, "block_probability", "significance.block_probability"),
    (essc.significance, "pvalue_table", "significance.pvalue_table"),
    (essc.significance, "select_by_fdr", "significance.select_by_fdr"),
    (essc.detect, "bh_select", "significance.bh_select"),
    (essc.detect, "community_search", "detect.community_search"),
    (essc.detect, "essc", "detect.essc"),
    (essc.cli, "essc", "detect.essc"),
    (essc.cli, "write_communities", "detect.write_communities"),
    (essc.cli, "summarize", "detect.summarize"),
    (essc.cli, "main", "cli.main"),
    (essc.bench, "generate", "bench.generate"),
    (essc.bench, "pair_stubs", "bench.pair_stubs"),
    (essc.metrics, "gnmi_cover", "metrics.gnmi_cover"),
    (essc.metrics, "best_match_score", "metrics.best_match_score"),
    (essc.metrics, "empirical_boundary_distribution",
     "metrics.empirical_boundary_distribution"),
]

TERMINATIONS = ("fixed_point", "empty", "cycle", "iteration_cap")


class Tracer:
    """Spans and counters of the cases run while it is installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.case_id = -1
        self._stack: list[int] = []
        self._graph_steps: dict[int, list] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        count = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if self.case_id < 0:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1]
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.case_id)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- cases ------------------------------------------------------------

    def open_case(self, case_id: int) -> None:
        """Start recording; the case itself is the root span."""
        self.case_id = case_id
        self._stack = [len(self.spans)]
        self.spans.append(("case", time.perf_counter(), 0.0, -1, case_id))

    def close_case(self) -> None:
        """End the open case and add the counts that need its graphs."""
        name, start, _, parent, case_id = self.spans[self._stack[0]]
        self.spans[self._stack[0]] = (name, start, time.perf_counter(), parent, case_id)
        self._stack = []
        self.case_id = -1
        for g, steps in self._graph_steps.values():
            nnz = sum(int(g.neighbors(u).size) for u in range(g.n))
            self.counts["graph.adjacency_entries_scanned"] += steps * nnz
        self._graph_steps.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, (name, start, end, parent, case_id) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "case": case_id}) + "\n")


def derived_counts(counts: Counter) -> dict[str, float]:
    """Every count metric, ratios included, from the raw counters."""
    scored = counts["significance.vertices_scored"]
    searches = counts["detect.searches"]
    stubs = counts["metrics.oracle.stubs_permuted"]
    out = {
        "significance.steps": counts["significance.steps"],
        "significance.vertices_scored": scored,
        "significance.useful_ratio": counts["_useful"] / scored if scored else 0.0,
        "graph.adjacency_entries_scanned": counts["graph.adjacency_entries_scanned"],
        "detect.searches": searches,
        "detect.iterations": counts["detect.iterations"],
    }
    for term in TERMINATIONS:
        out[f"detect.term.{term}"] = counts[f"detect.term.{term}"]
    out["detect.forced_progress"] = counts["detect.forced_progress"]
    out["detect.accepted_ratio"] = counts["_accepted"] / searches if searches else 0.0
    out["metrics.oracle.stubs_permuted"] = stubs
    out["metrics.oracle.useful_ratio"] = counts["_oracle_useful"] / stubs if stubs else 0.0
    return out


def _count_bh_select(tracer, args, kwargs, result):
    g = args[0]
    tracer.counts["significance.steps"] += 1
    tracer._graph_steps.setdefault(id(g), [g, 0])[1] += 1


def _count_pvalue_table(tracer, args, kwargs, table):
    tracer.counts["significance.vertices_scored"] += len(table)
    tracer.counts["_useful"] += int((table.boundary_counts > 0).sum())


def _count_essc(tracer, args, kwargs, result):
    log = result.seed_log
    tracer.counts["detect.searches"] += len(log)
    for rec in log:
        tracer.counts["detect.iterations"] += rec.iterations
        tracer.counts[f"detect.term.{rec.termination}"] += 1
        tracer.counts["detect.forced_progress"] += int(rec.forced_progress)
        tracer.counts["_accepted"] += int(rec.accepted)


def _count_oracle(tracer, args, kwargs, result):
    degrees, u = args[0], args[1]
    samples = kwargs.get("samples", args[3] if len(args) > 3 else None)
    total = int(np.sum(degrees))
    tracer.counts["metrics.oracle.stubs_permuted"] += samples * total
    tracer.counts["_oracle_useful"] += samples * int(degrees[u])


_COUNTERS = {
    "significance.bh_select": _count_bh_select,
    "significance.pvalue_table": _count_pvalue_table,
    "detect.essc": _count_essc,
    "metrics.empirical_boundary_distribution": _count_oracle,
}
