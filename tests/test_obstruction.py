"""The F_2 homology obstruction of the cover engine against the searches.

A proper piece on which rho_1 and rho_j induce different maps on
H_1(-; F_2) is decided "no" without a search, with a record naming a
cycle.  Every such record the engine makes here must pass the independent
checker, ``verify.check_obstruction``, and the public decider on the
restricted maps must answer "no" (or overrun its budget) on the piece.  The
checker in turn must reject every corrupted record of a small corpus.

The targets are the circle poset, the hollow triangle, the square cycle,
connected posets of at most 5 points, and the hollow square abcd with a
filled triangle abe glued on ab: a target with 2-simplices and H_1 != 0,
so residues that skip the reduction by B_1 give false obstructions there.
"""

import os
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from symtc.complexes import from_facets, restrict_map
from symtc.complexity import _UnitLattice, budgets_with, cc_plain
from symtc.constructions import build_tower, poset_tower, projection_rho
from symtc.errors import BudgetExceeded
from symtc.posets import MonotoneMap, poset_from_relations
from symtc.search import (
    plain_comb_homotopic,
    plain_contiguous,
    sym_comb_homotopic,
    sym_contiguous,
)
from symtc.verify import check_obstruction

import symtc

BUDGETS = {"nodes": 2_000, "lattice": 200}

CIRCLE = ("poset", "abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
HOLLOW_TRIANGLE = ("complex", "abc", [("a", "b"), ("b", "c"), ("a", "c")])
SQUARE_CYCLE = ("complex", "abcd",
                [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
SQUARE_WITH_TRIANGLE = ("complex", "abcde",
                        [("b", "c"), ("c", "d"), ("a", "d"), ("a", "b", "e")])


def relabellings(instance):
    """Every distinct input the instance's labels can be permuted into."""
    kind, labels, gens = instance
    out = set()
    for perm in permutations(labels):
        m = dict(zip(labels, perm))
        if kind == "complex":
            out.add(tuple(sorted(tuple(sorted(m[v] for v in g))
                                 for g in gens)))
        else:
            out.add(tuple(sorted((m[a], m[b]) for a, b in gens)))
    return [build((kind, labels, list(g))) for g in sorted(out)]


def build(instance):
    kind, labels, gens = instance
    if kind == "complex":
        return from_facets(list(labels), gens)
    return poset_from_relations(list(labels), gens)


class _Recording(_UnitLattice):
    """A unit lattice that keeps every decision it makes."""

    def __init__(self, *args):
        super().__init__(*args)
        self.decided = []

    def decide(self, mask):
        res = super().decide(mask)
        self.decided.append((mask, res))
        return res


def lattice(space, symmetric, n=2):
    budgets = budgets_with(BUDGETS)
    make = poset_tower if hasattr(space, "up") else build_tower
    return _Recording(make(space, n, 0, budget=budgets["simplices"]),
                      symmetric, budgets)


def restricted(problem, mask):
    """The piece of ``mask`` and rho_1 .. rho_n on it."""
    piece = problem.piece(mask)
    if problem.poset:
        return piece, [MonotoneMap(piece, f.target,
                                   {x: f.mapping[x] for x in piece.elements})
                       for f in problem.maps]
    return piece, [restrict_map(f, piece) for f in problem.maps]


def obstructions(space, symmetric, modes):
    """(problem, mask, record) for every obstruction the cover runs make,
    each run kept up to the budget it overruns."""
    for mode in modes:
        problem = lattice(space, symmetric)
        try:
            problem.cover(mode, "test")
        except BudgetExceeded:
            pass
        for mask, res in problem.decided:
            if res.record.get("stage") == "obstruction":
                assert res.status == "no" and mask != problem.all
                yield problem, mask, res.record


def search(problem, maps):
    """The public decider's status on the restricted maps, or "over"."""
    if problem.poset:
        sym, plain = sym_comb_homotopic, plain_comb_homotopic
    else:
        sym, plain = sym_contiguous, plain_contiguous
    try:
        if problem.symmetric:
            return sym(maps, problem.n, 0, mode="exact",
                       budget=BUDGETS["nodes"]).status
        return plain(maps, 0, mode="exact", budget=BUDGETS["nodes"]).status
    except BudgetExceeded:
        return "over"


def confirm(space, symmetric, modes=("exact",)):
    """Check every obstruction on ``space``; the count the search
    confirmed "no"."""
    confirmed = 0
    for problem, mask, record in obstructions(space, symmetric, modes):
        piece, maps = restricted(problem, mask)
        rep = check_obstruction(piece, maps, record)
        assert rep.ok, (record, rep.failures)
        status = search(problem, maps)
        assert status in ("no", "over"), record
        confirmed += status == "no"
    return confirmed


@pytest.mark.parametrize("symmetric", [False, True])
def test_circle_relabellings(symmetric):
    confirmed = [confirm(P, symmetric, ("exact", "upper"))
                 for P in relabellings(CIRCLE)]
    assert len(confirmed) == 6 and all(confirmed)


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("instance", [HOLLOW_TRIANGLE, SQUARE_CYCLE],
                         ids=["hollow-triangle", "square-cycle"])
def test_complex_relabellings(instance, symmetric):
    confirmed = [confirm(K, symmetric) for K in relabellings(instance)]
    assert all(confirmed)


@pytest.mark.parametrize("symmetric", [False, True])
def test_target_with_triangles_and_a_cycle(symmetric):
    assert confirm(build(SQUARE_WITH_TRIANGLE), symmetric) > 0


@st.composite
def connected_posets(draw):
    """Random acyclic relations on at most 5 points, each pair running from
    an earlier to a later point of a random arrangement.  Half the draws
    on 4 or 5 points hold a circle, two points below two others, so that
    H_1 often survives."""
    size = draw(st.integers(min_value=1, max_value=5))
    arranged = draw(st.permutations(range(size)))
    pairs = list(combinations(arranged, 2))
    gens = draw(st.lists(st.sampled_from(pairs), max_size=7)) if pairs else []
    if size >= 4 and draw(st.booleans()):
        a, b, c, d = sorted(draw(st.lists(st.integers(0, size - 1),
                                          min_size=4, max_size=4, unique=True)))
        gens += [(arranged[x], arranged[y]) for x in (a, b) for y in (c, d)]
    P = poset_from_relations(range(size), gens)
    assume(P.is_connected())
    return P


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(connected_posets(), st.booleans())
def test_small_posets(P, symmetric):
    confirm(P, symmetric, ("exact", "upper"))


def test_whole_space_keeps_its_exhaustion_record():
    res = cc_plain(build(CIRCLE), 2, 0)
    assert res.stats["whole_record"]["exhausted_component"] is True


def test_no_table_for_a_whole_space_decision():
    problem = lattice(from_facets("abc", [("a", "b", "c")]), True)
    assert problem.cover("exact", "test").value == 1
    assert "_edge_table" not in vars(problem)


def test_records_do_not_depend_on_string_hashing():
    """The edge table is keyed by names; the records must come out the same
    under any string hash seed."""
    code = (
        "import test_obstruction as t\n"
        "for space in (t.build(t.CIRCLE), t.build(t.SQUARE_WITH_TRIANGLE)):\n"
        "    for sym in (False, True):\n"
        "        for _, mask, record in t.obstructions(space, sym, ('exact',)):\n"
        "            print(mask, record)\n"
    )
    path = os.pathsep.join([str(Path(symtc.__file__).parent.parent),
                            str(Path(__file__).parent)])
    outs = [subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        capture_output=True, text=True, check=True,
    ).stdout for seed in ("0", "12345")]
    assert outs[0] and outs[0] == outs[1]


# ---------------------------------------------------------------------------
# the checker's corruption corpus
# ---------------------------------------------------------------------------


def _circle_records():
    return [(problem, mask, record) for problem, mask, record
            in obstructions(build(CIRCLE), False, ("exact",))]


def _rejected(piece, maps, record):
    return not check_obstruction(piece, maps, record).ok


def test_corpus_drop_an_edge():
    for problem, mask, record in _circle_records():
        piece, maps = restricted(problem, mask)
        for k in range(len(record["cycle"])):
            cycle = record["cycle"][:k] + record["cycle"][k + 1:]
            assert _rejected(piece, maps, {**record, "cycle": cycle})


def test_corpus_add_an_edge_outside_the_piece():
    tried = 0
    for problem, mask, record in _circle_records():
        piece, maps = restricted(problem, mask)
        top = problem.level
        outside = [(x, y) for x in top.elements for y in top.elements
                   if top.lt(x, y) and y not in piece]
        for x, y in outside[:3]:
            tried += 1
            for extra in ([(x, y)], [(x, y), (y, x)]):  # there and back
                cycle = record["cycle"] + extra
                assert _rejected(piece, maps, {**record, "cycle": cycle})
    assert tried


def test_corpus_replace_the_cycle_by_a_boundary():
    tried = 0
    for problem, mask, record in _circle_records():
        piece, maps = restricted(problem, mask)
        for x, y, z in combinations(piece.elements, 3):
            if piece.lt(x, y) and piece.lt(y, z):
                tried += 1
                cycle = [(x, y), (y, z), (x, z)]
                assert _rejected(piece, maps, {**record, "cycle": cycle})
    assert tried


def test_corpus_a_map_that_agrees_on_h1():
    records = _circle_records()
    assert records
    for problem, mask, record in records:
        piece, maps = restricted(problem, mask)
        assert _rejected(piece, maps, {**record, "j": 1})
    # on the circle's cube, z = (t, a, t) for t going round the circle:
    # rho_2(z) is constant, rho_3(z) = rho_1(z) is the circle
    tower = poset_tower(build(CIRCLE), 3, 0)
    maps = [projection_rho(tower, j) for j in (1, 2, 3)]
    loop = [(t, "a", t) for t in "acbd"]
    cycle = [(loop[k], loop[(k + 1) % 4]) for k in range(4)]
    record = {"stage": "obstruction", "j": 2, "cycle": cycle}
    assert check_obstruction(tower.top(), maps, record).ok
    assert _rejected(tower.top(), maps, {**record, "j": 3})


def test_corpus_on_a_complex():
    K = build(SQUARE_WITH_TRIANGLE)
    records = list(obstructions(K, False, ("exact",)))
    assert records
    for problem, mask, record in records[:20]:
        piece, maps = restricted(problem, mask)
        assert _rejected(piece, maps, {**record, "cycle": record["cycle"][1:]})
        assert _rejected(piece, maps, {**record, "j": 1})
        triangles = [s for s in piece.simplex_names() if len(s) == 3]
        for x, y, z in triangles[:2]:
            cycle = [(x, y), (y, z), (x, z)]
            assert _rejected(piece, maps, {**record, "cycle": cycle})


@pytest.mark.parametrize("record", [
    {"stage": "exact", "j": 2, "cycle": [("a", "c")]},
    {"stage": "obstruction", "j": 0, "cycle": [("a", "c")]},
    {"stage": "obstruction", "j": 3, "cycle": [("a", "c")]},
    {"stage": "obstruction", "j": 2, "cycle": []},
])
def test_corpus_malformed_records(record):
    problem, mask, _ = _circle_records()[0]
    piece, maps = restricted(problem, mask)
    assert _rejected(piece, maps, record)
