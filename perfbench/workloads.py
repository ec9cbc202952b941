"""Workload inputs, case lists and the correctness gate of the benchmark.

A workload is a fixed list of cases.  A case names a public symtc operation,
a base instance, and the answer it must give together with the source of
that answer.  The seed permutes the labels of every base instance: for each
case the distinct relabelled copies of its instance are shuffled by the
seed, and the case runs on the first ``keep`` of them.  Values do not depend
on labels but the work does, so a case keeps enough copies that their mean
work varies little between seeds, while every seed still sees different
inputs.  The kept copies are fixed before a run starts timing.

Importing this module imports symtc (and numpy); ``run.py`` times that
import as part of the set-up.
"""

import itertools
import json
import math
import random
from dataclasses import dataclass, field

import symtc
from symtc.errors import BudgetExceeded  # caught by run.py
from symtc.io import canonical_json
from symtc.translate import homotopy_to_contiguity, section_from_homotopy
from symtc.verify import validate
from symtc.witnesses import certificate_from_doc

INF = math.inf

# Base instances: (kind, labels, facets or order generators).
EDGE = ("complex", "ab", [("a", "b")])
TRIANGLE = ("complex", "abc", [("a", "b", "c")])
HOLLOW_TRIANGLE = ("complex", "abc", [("a", "b"), ("b", "c"), ("a", "c")])
SQUARE_CYCLE = ("complex", "abcd",
                [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
CHAIN2 = ("poset", (0, 1), [(0, 1)])
V_POSET = ("poset", "pqr", [("p", "r"), ("q", "r")])
CIRCLE = ("poset", "abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])

BASELINE = "baseline run at commit 5adc737"
CONTRACTIBLE = "contractible input, value 1 (acceptance criterion 8)"


@dataclass(frozen=True)
class Expect:
    """The answer a case must give; ``kind`` None means not yet known."""

    kind: object
    value: object
    source: str


UNKNOWN = Expect(None, None, "no known value: only certificates are checked")

KEEP = 3  # relabelled copies a case runs on, unless it says otherwise


@dataclass
class Case:
    name: str
    op: str  # a public symtc function
    instance: tuple
    kwargs: dict
    expect: Expect
    keep: int = KEEP
    two_routes: bool = False
    copies: list = field(default_factory=list)


def _case(name, op, instance, expect, keep=KEEP, **kwargs):
    return Case(name, op, instance, kwargs, expect, keep)


def connected_posets(max_size):
    """Every connected poset with at most ``max_size`` elements, up to
    isomorphism, as (size, sorted strict relations) over 0..size-1.

    Every finite poset has a natural labelling, so relations i < j with
    i < j as integers cover all of them.
    """
    found = []
    for size in range(1, max_size + 1):
        pairs = list(itertools.combinations(range(size), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            rel = {p for k, p in enumerate(pairs) if bits >> k & 1}
            if any((a, c) not in rel
                   for a, b in rel for b2, c in rel if b == b2):
                continue  # not transitive
            if not _connected(size, rel):
                continue
            canon = min(
                tuple(sorted((perm[a], perm[b]) for a, b in rel))
                for perm in itertools.permutations(range(size))
            )
            if canon not in seen:
                seen.add(canon)
                found.append((size, sorted(rel)))
    return found


def _connected(size, rel):
    reach, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for a, b in rel:
            for y in ((b,) if a == x else (a,) if b == x else ()):
                if y not in reach:
                    reach.add(y)
                    todo.append(y)
    return len(reach) == size


def _has_top_or_bottom(size, rel):
    below = {x: {a for a, b in rel if b == x} for x in range(size)}
    above = {x: {b for a, b in rel if a == x} for x in range(size)}
    return any(len(below[x]) == size - 1 or len(above[x]) == size - 1
               for x in range(size))


def workload_cases(workload):
    """The fixed case list of a workload (inputs not yet generated)."""
    if workload == "circle":
        return [
            _case("cc_plain(circle,2,0,exact)", "cc_plain", CIRCLE,
                  Expect("exact", 4, BASELINE), keep=4,
                  n=2, r=0, mode="exact"),
            _case("cc_sigma(circle,2,0,exact)", "cc_sigma", CIRCLE,
                  Expect("infinite", INF,
                         "whole space not good (acceptance criterion 7); "
                         + BASELINE), n=2, r=0, mode="exact"),
            _case("sc_sigma(hollow_triangle,2,0,upper)", "sc_sigma",
                  HOLLOW_TRIANGLE,
                  Expect("upper", 3, "exact value 3 (ROADMAP item 4); "
                         + BASELINE), n=2, r=0, mode="upper"),
            _case("cc_plain(circle,2,0,upper)", "cc_plain", CIRCLE,
                  Expect("upper", 4, BASELINE), n=2, r=0, mode="upper"),
        ]
    if workload == "deep":
        one = Expect("exact", 1, CONTRACTIBLE)
        return [
            _case("sc_sigma(edge,2,3)", "sc_sigma", EDGE, one, n=2, r=3),
            _case("sc_plain(triangle,2,1)", "sc_plain", TRIANGLE, one,
                  n=2, r=1),
            _case("sc_sigma(edge,3,1)", "sc_sigma", EDGE, one, n=3, r=1),
        ]
    if workload == "deep-posets":
        # Fails today: the checker rejects these valid certificates when the
        # poset's order runs against its label order (see README.md).
        one = Expect("exact", 1, CONTRACTIBLE)
        return [
            _case("cc_sigma(chain2,2,3)", "cc_sigma", CHAIN2, one, n=2, r=3),
            _case("cc_plain(V,2,2)", "cc_plain", V_POSET, one, n=2, r=2),
        ]
    if workload == "two-routes":
        cases = []
        for size, rel in connected_posets(4):
            expect = (Expect("exact", 1, "constant map to a top or bottom "
                             "element is a symmetric homotopy")
                      if _has_top_or_bottom(size, rel) else
                      Expect(None, None, "the two routes must agree "
                             "(acceptance criterion 4)"))
            case = _case(f"poset{size}{rel}", "tc_sigma_finite",
                         ("poset", tuple(range(size)), rel), expect, n=2)
            case.two_routes = True
            cases.append(case)
        return cases
    if workload == "frontier":
        return [
            _case("sc_sigma(hollow_triangle,2,0,exact)", "sc_sigma",
                  HOLLOW_TRIANGLE,
                  Expect("exact", 3, "ROADMAP item 4 (302 s, lattice "
                         "budget lifted)"), n=2, r=0, mode="exact"),
            _case("sc_sigma(square_cycle,2,0,upper)", "sc_sigma",
                  SQUARE_CYCLE, UNKNOWN, n=2, r=0, mode="upper"),
            _case("sc_sigma(hollow_triangle,3,0,upper)", "sc_sigma",
                  HOLLOW_TRIANGLE, UNKNOWN, n=3, r=0, mode="upper"),
        ]
    raise KeyError(workload)


WORKLOADS = ("circle", "deep", "two-routes", "frontier", "deep-posets")


def _relabelled(instance, perm):
    kind, labels, gens = instance
    m = dict(zip(labels, perm))
    if kind == "complex":  # facets are sets; order generators are pairs
        gens = sorted(tuple(sorted(m[v] for v in g)) for g in gens)
    else:
        gens = sorted((m[a], m[b]) for a, b in gens)
    return kind, tuple(sorted(labels)), gens


def build(instance):
    kind, labels, gens = instance
    if kind == "complex":
        return symtc.from_facets(list(labels), gens)
    return symtc.poset_from_relations(list(labels), gens)


def generate(workload, seed):
    """The workload's cases with their seed-chosen relabelled inputs."""
    cases = workload_cases(workload)
    for case in cases:
        labels = case.instance[1]
        distinct = {}
        for perm in itertools.permutations(labels):
            inst = _relabelled(case.instance, perm)
            distinct.setdefault(repr(inst[2]), inst)
        order = sorted(distinct)
        random.Random(f"{seed}/{case.name}").shuffle(order)
        case.copies = [build(distinct[key]) for key in order[:case.keep]]
    return cases


# ---------------------------------------------------------------------------
# running one case: compute, check, serialize
# ---------------------------------------------------------------------------


class Wrong(Exception):
    """The program gave an answer the correctness gate rejects."""


BUDGET_NAMES = (
    ("lattice", "lattice"),
    ("set cover", "cover"),
    ("power exceeds", "simplices"),
    ("subdivision exceeds", "simplices"),
    ("limited to", "target_vertices"),
    ("maps", "nodes"),
    ("search explored", "nodes"),
)


def budget_name(exc):
    msg = str(exc)
    for needle, name in BUDGET_NAMES:
        if needle in msg:
            return name
    return "unknown"


def _answer(res):
    return {"kind": res.kind, "value": _num(res.value),
            "upper": _num(res.upper)}


def _num(v):
    return "infinity" if v == INF else v


def _check_answer(case, res):
    exp = case.expect
    if exp.kind is not None and (res.kind, res.best()) != (exp.kind,
                                                           exp.value):
        raise Wrong(f"{res.kind} {res.best()} != expected {exp.kind} "
                    f"{exp.value} ({exp.source})")


def _check_cover(res):
    """The cover has as many pieces as the bound and covers the universe."""
    best = res.best()
    if best != INF and len(res.cover) != best:
        raise Wrong(f"cover has {len(res.cover)} pieces for bound {best}")
    universe = set(res.stats.get("universe_units", ()))
    if res.cover:
        covered = set().union(*(p.units for p in res.cover))
        if not universe <= covered:
            raise Wrong(f"cover misses units {sorted(universe - covered)}")


def _certificates(tr, report):
    with tr.span("io"):
        docs = json.loads(report)["cover"]
        return [certificate_from_doc(d["witness"]) for d in docs]


def _validate(tr, cert):
    with tr.span("verify"):
        rep = validate(cert)
    tr.count("verify.certificates")
    if not rep.ok:
        tr.count("verify.rejected")
        raise Wrong(f"checker rejected a {type(cert).__name__}: "
                    f"{rep.failures[:3]}")


def _call(tr, case, P):
    with tr.span("complexity"):
        res = getattr(symtc, case.op)(P, **case.kwargs)
    for key in ("pieces_tested", "lattice_visited", "candidate_pieces"):
        tr.count(f"complexity.{key}", res.stats.get(key, 0))
    return res


def _serialize(tr, *results):
    with tr.span("io"):
        reports = [canonical_json(r.to_doc()) for r in results]
    tr.count("io.report_bytes", sum(len(r.encode()) for r in reports))
    return reports


def run_case(tr, case, P):
    """Compute, check and serialize one case; returns the answer dict.

    Raises Wrong when the gate rejects the answer; the program's own
    exceptions propagate.
    """
    res = _call(tr, case, P)
    _check_answer(case, res)
    _check_cover(res)
    if not case.two_routes:
        report, = _serialize(tr, res)
        for cert in _certificates(tr, report):
            _validate(tr, cert)
        return _answer(res)

    with tr.span("complexity"):
        other = symtc.tc_sigma_finite_sections(P, **case.kwargs)
    if (other.kind, other.value) != (res.kind, res.value):
        raise Wrong(f"homotopy route {res.kind} {res.value} != section "
                    f"route {other.kind} {other.value}")
    report, _ = _serialize(tr, res, other)
    for H in _certificates(tr, report):
        _validate(tr, H)
        for translate in (section_from_homotopy, homotopy_to_contiguity):
            with tr.span("translate"):
                T = translate(H)
            with tr.span("io"):
                T = certificate_from_doc(json.loads(canonical_json(
                    T.to_doc())))
            _validate(tr, T)
    return _answer(res)
