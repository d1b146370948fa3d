"""Span tracing of the program's layers, installed from outside ``src/``.

``Tracer.install`` replaces every public function of each layer module
with a wrapper that records one span per call, at every module namespace
that binds the function: ``cli``, ``geodesics``, ``watershed`` and others
import names such as ``minima_of_flooding`` directly, so patching the
defining module alone would miss most internal calls.  The methods of
``WeightedGraph`` that copy or build a whole graph are wrapped on the
class; ``__post_init__`` runs once per construction, so its span count is
the number of graphs built.

Only stage-level functions are wrapped.  Per-element helpers (the
lexicographic arithmetic, ``neighbors``, ``edge_id``) run millions of
times per op, and a wrapper around each call would swamp what it
measures.

Attribution rule: ``WeightedGraph.adjacency`` is a lazily built cached
property and is not wrapped, so building it is charged to the innermost
wrapped call that first touches ``neighbors`` on that graph.  Work in
private helpers (``_propagate``, ``_seed_minima``, the dense solvers) is
charged to the wrapped public caller, which lives in the same module.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the span
list (-1 for none) and ``op`` is the id the benchmark gave the op.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "formats", "graphs", "adjunction", "flooding", "steepness",
    "geodesics", "lexalgebra", "watershed", "waterfall",
)

# Called once per node, edge or matrix entry: never wrapped.
PER_ELEMENT = {
    "lexalgebra": {"lex_weight", "lex_compare", "lex_min", "lex_chain", "lift",
                   "exact_chain", "exact_min"},
}

# Whole-graph methods, wrapped on their class.
METHODS = {
    ("graphs", "WeightedGraph"): ("__post_init__", "partial", "with_weights"),
    ("graphs", "Labeling"): ("label_sets", "zone_nodes"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        return traced

    def install(self, package: str = "morphograph") -> None:
        """Wrap every stage-level public function at each binding site."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            skip = PER_ELEMENT.get(layer, set())
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in skip):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, name, wrappers[value])
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            for name in names:
                setattr(cls, name, self._wrap(f"{layer}.{cls_name}.{name}", vars(cls)[name]))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
