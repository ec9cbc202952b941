"""Differential tests: the four deciders against brute-force oracles.

Each oracle enumerates every map with ``helpers.brute_simplicial_maps`` or
``helpers.brute_monotone_maps``, closes the start under explicit contiguity
or comparability adjacency with ``helpers.reachable``, and checks the goal on
that component.  No searcher code is involved: the constraint and diagonal
conditions are written out on tuple coordinates.  Sources are Sigma_n-invariant
pieces of the level-0 power, kept small enough to enumerate, so n = 3 is
covered too.  Every "yes" witness must pass the independent checker.  Each
decider runs in every mode: "exact" and "auto" must give the oracle's answer,
"bounded" must answer "yes" where the oracle does and "unknown" elsewhere.
The monotone deciders search the core of the piece; the oracles never do,
and two tests per decider require drawn pieces with a core smaller than
the piece that answer "yes" and that answer "no".
"""

from itertools import permutations

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from symtc.complexes import from_facets, restrict_map, subcomplex_from_simplices
from symtc.constructions import (
    build_tower,
    poset_tower,
    projection_pi,
    projection_rho,
)
from symtc.errors import CycleDetected
from symtc.posets import MonotoneMap, poset_from_relations
from symtc.search import (
    plain_comb_homotopic,
    plain_contiguous,
    sym_comb_homotopic,
    sym_contiguous,
)
from symtc.verify import validate

from helpers import brute_monotone_maps, brute_simplicial_maps, reachable

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# largest factor for each arity: the power then has at most 9 points
FACTOR_SIZE = {2: 3, 3: 2}


def _permuted(x, p):
    return tuple(x[i] for i in p)


def _constant_under(values, names, perms):
    """values[name] == values[name permuted] for every listed permutation."""
    return all(values[_permuted(x, p)] == values[x] for x in names for p in perms)


def _perms(n, fix_first):
    rest = range(1, n) if fix_first else range(n)
    out = []
    for q in permutations(rest):
        out.append((0,) + q if fix_first else q)
    return out


@st.composite
def arity_and_piece_seed(draw):
    n = draw(st.sampled_from([2, 2, 3]))
    size = draw(st.integers(min_value=1, max_value=FACTOR_SIZE[n]))
    whole = draw(st.booleans())
    return n, size, whole, draw(st.randoms(use_true_random=False))


@st.composite
def complex_cases(draw):
    n, size, whole, rnd = draw(arity_and_piece_seed())
    verts = "abc"[:size]
    facets = draw(
        st.lists(
            st.lists(st.sampled_from(verts), min_size=1, max_size=size,
                     unique=True),
            min_size=1, max_size=3,
        )
    )
    K = from_facets(verts, facets)
    tower = build_tower(K, n, 0)
    top = tower.top()
    maps = [projection_pi(tower, j) for j in range(1, n + 1)]
    if whole and size ** len(top.vertices) <= 5_000:
        return n, tower, maps
    # the down-closure of the Sigma_n-orbits of one or two simplices: an
    # invariant piece
    simplices = sorted(top.base.simplices, key=sorted)
    chosen = rnd.sample(simplices, min(len(simplices), rnd.choice([1, 2])))
    orbits = {
        frozenset(_permuted(x, p) for x in s)
        for s in chosen for p in _perms(n, False)
    }
    piece = subcomplex_from_simplices(top, orbits)
    assume(size ** len(piece.vertices) <= 5_000)
    return n, tower, [restrict_map(f, piece) for f in maps]


@st.composite
def poset_cases(draw):
    n, size, whole, rnd = draw(arity_and_piece_seed())
    els = list(range(size))
    pairs = [(a, b) for a in els for b in els if a != b]
    rel = draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True)
               if pairs else st.just([]))
    try:
        P = poset_from_relations(els, rel)
    except CycleDetected:
        P = poset_from_relations(els, [])
    tower = poset_tower(P, n, 0)
    top = tower.top()
    maps = [projection_rho(tower, j) for j in range(1, n + 1)]
    if whole and size ** len(top.elements) <= 5_000:
        return n, P, maps
    elements = sorted(top.elements)
    chosen = rnd.sample(elements, min(len(elements), rnd.choice([1, 2])))
    Q = top.restrict(top.down_closure(
        {_permuted(x, p) for x in chosen for p in _perms(n, False)}
    ))
    assume(size ** len(Q.elements) <= 5_000)
    return n, P, [
        MonotoneMap(Q, P, {y: f.mapping[y] for y in Q.elements}) for f in maps
    ]


def _simplicial_component(maps):
    L, K = maps[0].source, maps[0].target
    verts = sorted(L.vertices)
    facets = list(L.facets)
    nodes = [
        tuple(m[v] for v in verts)
        for m in brute_simplicial_maps(verts, facets, sorted(K.vertices),
                                       K.simplices)
    ]

    def contiguous(a, b):
        ma, mb = dict(zip(verts, a)), dict(zip(verts, b))
        return all(
            K.is_simplex(frozenset(ma[v] for v in s) | frozenset(mb[v] for v in s))
            for s in facets
        )

    return verts, nodes, contiguous


def _monotone_component(maps):
    Q, P = maps[0].source, maps[0].target
    els = list(Q.elements)
    nodes = [
        tuple(m[x] for x in els)
        for m in brute_monotone_maps(els, Q.le, list(P.elements), P.le)
    ]

    def comparable(a, b):
        return all(P.le(u, w) for u, w in zip(a, b)) or all(
            P.le(w, u) for u, w in zip(a, b)
        )

    return els, nodes, comparable


def _sym_oracle(n, names, nodes, adjacent, first):
    """Is a Sigma_n-invariant map in the start's component among the maps
    constant on the constraint orbits (permutations fixing coordinate 1)?"""
    constraint, full = _perms(n, True), _perms(n, False)
    nodes = [
        k for k in nodes
        if _constant_under(dict(zip(names, k)), names, constraint)
    ]
    start = tuple(first[x] for x in names)
    assert start in nodes
    component = reachable([start], nodes, adjacent)
    return any(
        _constant_under(dict(zip(names, k)), names, full) for k in component
    )


def _plain_oracle(names, nodes, adjacent, tables):
    starts = [tuple(t[x] for x in names) for t in tables]
    component = reachable([starts[0]], nodes, adjacent)
    return all(s in component for s in starts)


MODES = ("exact", "auto", "bounded")


def _check(decide, expected):
    for mode in MODES:
        _check_mode(decide(mode), expected, mode)


def _check_mode(res, expected, mode):
    if mode == "bounded":
        assert res.status == ("yes" if expected else "unknown")
    else:
        assert res.status == ("yes" if expected else "no")
    if res.yes:
        assert validate(res.witness)
    elif mode != "bounded":
        assert res.record["exhausted_component"]
        assert res.record["total_nodes"] > 0


@SETTINGS
@given(complex_cases())
def test_sym_contiguous_matches_oracle(case):
    n, tower, maps = case
    names, nodes, adjacent = _simplicial_component(maps)
    expected = _sym_oracle(n, names, nodes, adjacent, maps[0].vertex_map)
    _check(lambda mode: sym_contiguous(maps, n, 0, mode=mode,
                                       target_ordered=tower.factor), expected)


@SETTINGS
@given(complex_cases())
def test_plain_contiguous_matches_oracle(case):
    n, tower, maps = case
    names, nodes, adjacent = _simplicial_component(maps)
    expected = _plain_oracle(names, nodes, adjacent,
                             [f.vertex_map for f in maps])
    _check(lambda mode: plain_contiguous(maps, mode=mode,
                                         target_ordered=tower.factor), expected)


@SETTINGS
@given(poset_cases())
def test_sym_comb_homotopic_matches_oracle(case):
    n, P, maps = case
    names, nodes, adjacent = _monotone_component(maps)
    expected = _sym_oracle(n, names, nodes, adjacent, maps[0].mapping)
    _check(lambda mode: sym_comb_homotopic(maps, n, 0, mode=mode), expected)


@SETTINGS
@given(poset_cases())
def test_plain_comb_homotopic_matches_oracle(case):
    n, P, maps = case
    names, nodes, adjacent = _monotone_component(maps)
    expected = _plain_oracle(names, nodes, adjacent,
                             [f.mapping for f in maps])
    _check(lambda mode: plain_comb_homotopic(maps, mode=mode), expected)


def _monotone_decider(symmetric, n, maps):
    if symmetric:
        return lambda mode: sym_comb_homotopic(maps, n, 0, mode=mode)
    return lambda mode: plain_comb_homotopic(maps, mode=mode)


@pytest.mark.parametrize("expected", [True, False], ids=["yes", "no"])
@pytest.mark.parametrize("symmetric", [True, False], ids=["sym", "plain"])
@settings(SETTINGS, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(poset_cases())
def test_comb_homotopic_on_proper_cores(symmetric, expected, case):
    """Pieces whose exact search ran on a core smaller than the piece and
    answered ``expected`` get that answer from the whole-piece oracle too,
    and their lifted witnesses validate.  Hypothesis fails the test as
    unsatisfiable unless some drawn piece has such a core and answer; the
    two values of ``expected`` together cover every such piece."""
    n, P, maps = case
    decide = _monotone_decider(symmetric, n, maps)
    res = decide("exact")
    assume(res.record.get("stage") == "exact")
    assume(res.record["core"] < len(maps[0].source.elements))
    assume(res.yes == expected)
    names, nodes, adjacent = _monotone_component(maps)
    if symmetric:
        answer = _sym_oracle(n, names, nodes, adjacent, maps[0].mapping)
    else:
        answer = _plain_oracle(names, nodes, adjacent,
                               [f.mapping for f in maps])
    assert answer == expected
    _check(decide, expected)
