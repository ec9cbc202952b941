"""Spans and counters recorded from outside the program.

While a traced case runs, the tracer rebinds the module attributes through
which symtc's own callers reach each layer (``symtc.complexity.sym_contiguous``
and the like), so every call into a layer opens a span and its result feeds
the layer's counters.  symtc itself is not edited; the benchmark's own calls
into the public API, the checker, the translators and the JSON layer open
spans at the call site.  Spans stay in memory until the run ends.

A span is ``[layer, start, end, parent index, case id, nested]``; ``nested``
marks a span opened inside another span of the same layer, whose time the
outer span already counts as busy time.
"""

import contextlib
import importlib
import time
from collections import Counter

from symtc.complexes import base_of
from symtc.errors import BudgetExceeded

LAYERS = ("constructions", "actions", "complexes", "search", "complexity",
          "covers", "sections", "translate", "verify", "io")

DECIDERS = ("sym_contiguous", "plain_contiguous", "sym_comb_homotopic",
            "plain_comb_homotopic")


def _top_size(tr, tower):
    top = tower.top()
    size = len(top.elements) if tower.kind == "poset" else len(
        base_of(top).simplices)
    tr.count("constructions.top_size", size)


def _units(tr, parts):
    tr.count("actions.calls")
    tr.count("actions.units", len(parts))


def _search(tr, res):
    tr.count("search.calls")
    tr.count(f"search.{res.status}")
    rec = res.record
    tr.count(f"search.stage_{rec.get('stage')}")
    tr.count("search.nodes_enumerated", rec.get("total_nodes", 0))
    tr.count("search.nodes_explored", rec.get("explored", 0))
    if res.yes:
        w = res.witness
        tr.count("search.witness_steps", w.c if hasattr(w, "c") else w.m)


def _covers(tr, _):
    tr.count("covers.calls")


def _sections(tr, out):
    tr.count("sections.pieces_tested", out["pieces_tested"])


# (layer, module, attribute, counter hook or None)
HOOKS = (
    [("constructions", "symtc.complexity", a, _top_size)
     for a in ("build_tower", "poset_tower")]
    + [("constructions", "symtc.complexity", a, None)
       for a in ("projection_pi", "projection_rho")]
    + [("actions", "symtc.complexity", a, _units)
       for a in ("orbit_partition", "orbit_partition_simplices")]
    + [("actions", "symtc.search", "orbit_partition", _units)]
    + [("complexes", "symtc.complexity", a, None)
       for a in ("restrict_map", "subcomplex_from_simplices")]
    + [("search", "symtc.complexity", a, _search) for a in DECIDERS]
    + [("covers", "symtc.complexity", "min_cover", _covers)]
    + [("sections", "symtc.sections", "cc_by_sections", _sections)]
    # tc_sigma_finite reaches cc_sigma through the module global
    + [("complexity", "symtc.complexity", "cc_sigma", None)]
    + [("io", "symtc.complexity", a, None)
       for a in ("complex_to_doc", "poset_to_doc")]
)


class NullTracer:
    """Tracing off: spans and counters cost one call each."""

    def span(self, layer):
        return contextlib.nullcontext()

    def count(self, name, k=1):
        pass


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.case_id = None
        self.counters = Counter()

    @contextlib.contextmanager
    def span(self, layer):
        rec = [layer, time.perf_counter(), None,
               self.stack[-1] if self.stack else None, self.case_id,
               any(self.spans[i][0] == layer for i in self.stack)]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter()

    def count(self, name, k=1):
        self.counters[name] += k

    def _wrap(self, layer, fn, hook):
        def traced(*args, **kwargs):
            with self.span(layer):
                try:
                    out = fn(*args, **kwargs)
                except BudgetExceeded:
                    if layer == "search":
                        self.count("search.calls")
                        self.count("search.budget_exceeded")
                    raise
            if hook is not None:
                hook(self, out)
            return out
        return traced

    @contextlib.contextmanager
    def case(self, case_id):
        """Trace one case execution: hooks installed, a root span open.

        Yields the index of the root span; counters start from zero.
        """
        self.case_id = case_id
        self.counters = Counter()
        saved = []
        try:
            for layer, mod, attr, hook in HOOKS:
                module = importlib.import_module(mod)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn, hook))
            with self.span("case"):
                yield len(self.spans) - 1
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summarize(self, root):
        """Busy time, self time and unattributed time of one case."""
        spans = self.spans[root:]
        child_time = [0.0] * len(spans)
        for layer, start, end, parent, _, _ in spans[1:]:
            child_time[parent - root] += end - start
        busy, own, search_ms = Counter(), Counter(), []
        for k, (layer, start, end, _, _, nested) in enumerate(spans):
            if k == 0:
                continue
            own[layer] += end - start - child_time[k]
            if not nested:
                busy[layer] += end - start
                if layer == "search":
                    search_ms.append((end - start) * 1e3)
        case_s = spans[0][2] - spans[0][1]
        return {
            "wall_s": case_s,
            "busy_s": dict(busy),
            "self_s": dict(own),
            "unattributed_s": case_s - child_time[0],
            "search_ms": search_ms,
        }

    def span_docs(self):
        return [
            {"layer": layer, "start": start, "end": end, "parent": parent,
             "case": case}
            for layer, start, end, parent, case, _ in self.spans
        ]
