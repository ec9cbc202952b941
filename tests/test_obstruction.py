"""The F_2 homology obstruction and the quotient test of the cover engine
against the searches.

A proper piece on which rho_1 and rho_j induce different maps on
H_1(-; F_2) is decided "no" without a search, with a record naming a
cycle.  So is a symmetric piece with a cycle z whose image in the orbit
complex bounds the image of a 2-chain c of the piece while rho_1(z) does
not bound in the target; that record names z and c.  Every such record the
engine makes here must pass the independent checker,
``verify.check_obstruction``, and the public decider on the restricted maps
must answer "no" (or overrun its budget) on the piece.  The checker in turn
must reject every corrupted record of a small corpus.  When the search
overruns on the whole space, the cover decides it by the same two tests.

The targets are the circle poset, the hollow triangle, the square cycle,
connected posets of at most 5 points, and the hollow square abcd with a
filled triangle abe glued on ab: a target with 2-simplices and H_1 != 0,
so residues that skip the reduction by B_1 give false obstructions there.
Seeded random down-closures of the square cycle's and the hollow triangle's
units at r = 0, of the hollow triangle's and the circle's at r = 1, and of
the circle's cube (n = 3) go to the quotient test directly, without the F_2
test before it: pieces whose own 2-simplices are fewer than the top
level's, on which rho_1 and rho_2 can differ on H_1.
"""

import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from symtc.complexes import base_of, from_facets, restrict_map
from symtc.complexity import _UnitLattice, budgets_with, cc_plain, cc_sigma
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


def lattice(space, symmetric, n=2, r=0):
    budgets = budgets_with(BUDGETS)
    make = poset_tower if hasattr(space, "up") else build_tower
    return _Recording(make(space, n, r, budget=budgets["simplices"]),
                      symmetric, budgets)


def restricted(problem, mask):
    """The piece of ``mask`` and rho_1 .. rho_n on it."""
    piece = problem.piece(mask)
    if problem.poset:
        return piece, [MonotoneMap(piece, f.target,
                                   {x: f.mapping[x] for x in piece.elements})
                       for f in problem.maps]
    return piece, [restrict_map(f, piece) for f in problem.maps]


STAGES = ("obstruction", "quotient")


def obstructions(space, symmetric, modes):
    """(problem, mask, record) for every obstruction or quotient record the
    cover runs make, each run kept up to the budget it overruns."""
    for mode in modes:
        problem = lattice(space, symmetric)
        try:
            problem.cover(mode, "test")
        except BudgetExceeded:
            pass
        for mask, res in problem.decided:
            stage = res.record.get("stage")
            if stage in STAGES:
                assert res.status == "no" and mask != problem.all
                assert symmetric or stage == "obstruction"
                yield problem, mask, res.record


def down_closures(problem, seed, count):
    """``count`` seeded random down-closures of sets of universe units,
    proper and nonempty."""
    rng = random.Random(seed)
    universe = [1 << u for u in range(len(problem.units))
                if problem.universe >> u & 1]
    masks = []
    while len(masks) < count:
        mask = problem.down_closure(
            sum(u for u in universe if rng.random() < 0.5))
        if 0 < mask < problem.all:
            masks.append(mask)
    return masks


def search(problem, maps):
    """The public decider's status on the restricted maps, or "over"."""
    if problem.poset:
        sym, plain = sym_comb_homotopic, plain_comb_homotopic
    else:
        sym, plain = sym_contiguous, plain_contiguous
    try:
        if problem.symmetric:
            return sym(maps, problem.n, problem.depth, mode="exact",
                       budget=BUDGETS["nodes"]).status
        return plain(maps, problem.depth, mode="exact",
                     budget=BUDGETS["nodes"]).status
    except BudgetExceeded:
        return "over"


def confirmed(problem, mask, record):
    """Whether the search confirmed the record's "no"; the checker must
    accept it and the search must not answer "yes"."""
    piece, maps = restricted(problem, mask)
    rep = check_obstruction(piece, maps, record, problem.depth)
    assert rep.ok, (record, rep.failures)
    status = search(problem, maps)
    assert status in ("no", "over"), record
    return status == "no"


def confirm(space, symmetric, modes=("exact",)):
    """Check every record on ``space``; the count the search confirmed
    "no"."""
    return sum(confirmed(*found)
               for found in obstructions(space, symmetric, modes))


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


@pytest.mark.parametrize("instance", [HOLLOW_TRIANGLE, SQUARE_CYCLE,
                                      SQUARE_WITH_TRIANGLE],
                         ids=["hollow-triangle", "square-cycle",
                              "square-with-triangle"])
def test_quotient_records_of_the_cover_runs(instance):
    """Symmetric cover runs decide pieces by the quotient test, some of
    them with a nonempty chain, and plain runs never do."""
    records = [found for found in obstructions(build(instance), True,
                                               ("exact", "upper"))
               if found[2]["stage"] == "quotient"]
    assert records
    for found in records:
        confirmed(*found)
    assert any(record["chain"] for _, _, record in records)


@pytest.mark.parametrize("instance,n,r,seed", [
    (SQUARE_CYCLE, 2, 0, 1), (SQUARE_CYCLE, 2, 0, 2),
    (HOLLOW_TRIANGLE, 2, 0, 1), (HOLLOW_TRIANGLE, 2, 1, 1),
    (CIRCLE, 2, 1, 1), (CIRCLE, 3, 0, 1),
], ids=["square-cycle-1", "square-cycle-2", "hollow-triangle",
        "hollow-triangle-r1", "circle-r1", "circle-n3"])
def test_quotient_on_random_down_closures(instance, n, r, seed):
    """The quotient test on its own, on random symmetric pieces: every
    record passes the checker and no search answers "yes".  Without the
    F_2 test before it, rho_2(z) may bound where rho_1(z) does not."""
    problem = lattice(build(instance), True, n=n, r=r)
    records = [(mask, record) for mask in down_closures(problem, seed, 20)
               if (record := problem.quotient(mask)) is not None]
    for mask, record in records:
        confirmed(problem, mask, record)
    assert any(record["chain"] for _, record in records)


def test_the_whole_space_is_refuted_when_its_search_overruns():
    """At r = 1 the circle's whole space overruns the node budget; the
    cover decides it by an obstruction or quotient record instead, which
    the checker accepts on the whole space."""
    P = build(CIRCLE)
    tower = poset_tower(P, 2, 1)
    maps = [projection_rho(tower, j) for j in (1, 2)]
    for cover, value in ((cc_sigma, 3), (cc_plain, 4)):
        res = cover(P, 2, 1, mode="upper")
        assert (res.kind, res.upper) == ("upper", value)
        record = res.stats["whole_record"]
        assert record["stage"] in STAGES
        assert check_obstruction(tower.top(), maps, record, 1).ok


def test_whole_space_keeps_its_exhaustion_record():
    res = cc_plain(build(CIRCLE), 2, 0)
    assert res.stats["whole_record"]["exhausted_component"] is True


def test_no_table_for_a_whole_space_decision():
    problem = lattice(from_facets("abc", [("a", "b", "c")]), True)
    assert problem.cover("exact", "test").value == 1
    assert "_edge_table" not in vars(problem)


def test_no_orbit_table_for_a_plain_lattice():
    """The quotient test's table is built for symmetric pieces only."""
    plain = lattice(build(SQUARE_CYCLE), False)
    plain.cover("upper", "test")
    assert "_edge_table" in vars(plain) and "_orbit_table" not in vars(plain)
    whole = lattice(from_facets("abc", [("a", "b", "c")]), True)
    whole.cover("exact", "test")
    assert "_orbit_table" not in vars(whole)


def test_records_do_not_depend_on_string_hashing():
    """The edge table is keyed by names; the records must come out the same
    under any string hash seed."""
    code = (
        "import test_obstruction as t\n"
        "for space in (t.build(t.CIRCLE), t.build(t.SQUARE_WITH_TRIANGLE)):\n"
        "    for sym in (False, True):\n"
        "        for _, mask, record in t.obstructions(space, sym, ('exact',)):\n"
        "            print(mask, record)\n"
        "problem = t.lattice(t.build(t.CIRCLE), True, r=1)\n"
        "for mask in t.down_closures(problem, 1, 5):\n"
        "    print(mask, problem.quotient(mask))\n"
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


def _rejected(piece, maps, record, depth=0):
    """Whether the checker rejects the record, each failure in one line."""
    rep = check_obstruction(piece, maps, record, depth)
    assert all("\n" not in failure for failure in rep.failures)
    return not rep.ok


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


def _quotient_records():
    """Quotient records with a chain, on random pieces of the square cycle
    at r = 0 (a complex) and of the circle at r = 1 (a poset)."""
    out = []
    for instance, r in ((SQUARE_CYCLE, 0), (CIRCLE, 1)):
        problem = lattice(build(instance), True, r=r)
        for mask in down_closures(problem, 3, 8):
            record = problem.quotient(mask)
            if record is not None and record["chain"]:
                out.append((problem, mask, record))
    assert {problem.poset for problem, _, _ in out} == {False, True}
    return out


def _top_simplices(problem, size):
    """The top level's simplices (chains) of ``size`` names."""
    level = problem.level
    if not problem.poset:
        return [s for s in base_of(level).simplex_names() if len(s) == size]
    strict = [(a, b) for a in level.elements for b in level.elements
              if level.lt(a, b)]
    if size == 2:
        return strict
    return [(a, b, c) for a, b in strict for b2, c in strict if b2 == b]


def _in_piece(piece, names):
    return all(x in (piece.elements if hasattr(piece, "up")
                     else piece.vertices) for x in names)


def test_quotient_corpus():
    records = _quotient_records()
    outside = bounding = 0
    for problem, mask, record in records:
        piece, maps = restricted(problem, mask)
        depth = problem.depth
        cycle, chain = record["cycle"], record["chain"]
        assert not _rejected(piece, maps, record, depth)
        # drop a cycle edge; drop a chain triple (q(z) is no boundary)
        for k in range(len(cycle)):
            assert _rejected(piece, maps, {
                **record, "cycle": cycle[:k] + cycle[k + 1:]}, depth)
        for k in range(len(chain)):
            assert _rejected(piece, maps, {
                **record, "chain": chain[:k] + chain[k + 1:]}, depth)
        # outside the piece: an edge, there and back, and a chain triple,
        # twice; each keeps z a cycle and the boundary of q(c) as it was
        for x, y in [e for e in _top_simplices(problem, 2)
                     if not _in_piece(piece, e)][:2]:
            outside += 1
            assert _rejected(piece, maps, {
                **record, "cycle": cycle + [(x, y), (y, x)]}, depth)
        for t in [t for t in _top_simplices(problem, 3)
                  if not _in_piece(piece, t)][:2]:
            outside += 1
            assert _rejected(piece, maps, {
                **record, "chain": chain + [t, t]}, depth)
        # the boundary of a 2-simplex of the piece: q(z) is the boundary of
        # q(c), but rho_1(z) bounds
        for x, y, w in chain[:2]:
            bounding += 1
            assert _rejected(piece, maps, {
                "stage": "quotient", "cycle": [(x, y), (y, w), (x, w)],
                "chain": [(x, y, w)]}, depth)
    assert outside and bounding


def test_quotient_corpus_orbits_and_maps():
    """A depth the piece's names do not have is one failure, not a
    traceback; and a record fails under a tuple whose first map is
    constant, since then rho_1(z) bounds."""
    problem, mask, record = _quotient_records()[0]
    piece, maps = restricted(problem, mask)
    assert _rejected(piece, maps, record, problem.depth + 1)
    target = base_of(maps[0].target)
    point = target.vertices[0]
    flat = type(maps[0])(piece, maps[0].target,
                         {x: point for x in piece.vertices})
    assert _rejected(piece, [flat] + maps[1:], record, problem.depth)


@pytest.mark.parametrize("record", [
    {"stage": "quotient", "cycle": [("a", "c"), ("c", "a")]},
    {"stage": "quotient", "cycle": [("a", "c"), ("c", "a")], "chain": "ab"},
    {"stage": "quotient", "cycle": [("a",)], "chain": []},
    {"stage": "quotient", "cycle": [(["a"], "c"), ("c", ["a"])],
     "chain": []},
    {"stage": "quotient", "cycle": [("a", "c"), ("c", "a")],
     "chain": [("a", ["c"], "d")]},
    {"stage": "quotient", "cycle": [], "chain": []},
    {"stage": "quotient", "cycle": None, "chain": None},
    None,
    [("a", "c")],
])
def test_quotient_corpus_malformed_records(record):
    problem, mask, _ = _circle_records()[0]
    piece, maps = restricted(problem, mask)
    rep = check_obstruction(piece, maps, record)
    assert len(rep.failures) == 1 and not rep.ok
