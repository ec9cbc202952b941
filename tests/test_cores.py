"""Beat-point cores of the monotone deciders against brute force.

``_MonotoneSpace.core`` removes beat points a whole orbit at a time.  On
Hypothesis posets, with single points as orbits and with the orbits of the
symmetric group on parts of a power, the core must have no beat point left
(``helpers.beat_points``), every removal step must be monotone, comparable
with the identity and equivariant, and the core must be invariant.  Two
circle pieces pin a "no" decided on a core smaller than the piece against
the brute-force component on the whole piece and against the section route.
"""

from itertools import permutations

from hypothesis import given, settings, strategies as st

from symtc.constructions import poset_tower, projection_rho
from symtc.posets import MonotoneMap, poset_from_relations, power_poset
from symtc.search import (
    _MonotoneSpace,
    plain_comb_homotopic,
    sym_comb_homotopic,
)
from symtc.sections import section_search

from helpers import beat_points, brute_monotone_maps, reachable

POINT = poset_from_relations([0], [])
CIRCLE = poset_from_relations(
    "abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
)


@st.composite
def posets(draw, max_size):
    els = list(range(draw(st.integers(min_value=1, max_value=max_size))))
    pairs = [(a, b) for a in els for b in els if a < b]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)
                  if pairs else st.just([]))
    return poset_from_relations(els, chosen)


def _permutations(x):
    return {tuple(x[i] for i in p) for p in permutations(range(len(x)))}


@st.composite
def sources(draw):
    """(Q, orbits, n): a poset with single points as orbits (n = 1), or a
    Sigma_n-invariant part of a power with the symmetric group's orbits,
    as index lists in order of their first index."""
    n = draw(st.sampled_from([1, 2, 2, 3]))
    if n == 1:
        Q = draw(posets(7))
        return Q, [[i] for i in range(len(Q.elements))], n
    power = power_poset(draw(posets(3 if n == 2 else 2)), n)
    chosen = draw(st.lists(st.sampled_from(power.elements), min_size=1,
                           unique=True))
    Q = power.restrict({y for x in chosen for y in _permutations(x)})
    orbits = {}
    for i, x in enumerate(Q.elements):
        orbits.setdefault(frozenset(_permutations(x)), []).append(i)
    return Q, sorted(orbits.values()), n


@given(sources())
@settings(max_examples=150, deadline=None)
def test_core_has_no_beat_point_and_retracts_by_steps(drawn):
    Q, orbits, n = drawn
    core, pos, steps = _MonotoneSpace(Q, POINT).core(orbits)
    keep = list(pos)
    group = list(permutations(range(n))) if n > 1 else []

    def le(i, j):
        return Q.le(Q.elements[i], Q.elements[j])

    alive = set(range(len(Q.elements)))
    for step in steps:
        assert any(sorted(step) == orbit for orbit in orbits)
        after = alive - set(step)
        assert set(step.values()) <= after

        def R(x):
            return step.get(x, x)

        assert all(le(R(a), R(b)) for a in alive for b in alive if le(a, b))
        assert (all(le(R(x), x) for x in alive)
                or all(le(x, R(x)) for x in alive))
        for x in step:  # R commutes with the group
            for p in group:
                gx = Q.index[tuple(Q.elements[x][i] for i in p)]
                gy = Q.index[tuple(Q.elements[step[x]][i] for i in p)]
                assert step[gx] == gy
        alive = after
    assert keep == sorted(alive)
    assert list(pos.values()) == list(range(len(keep)))
    assert not beat_points(keep, le)
    names = {Q.elements[i] for i in keep}
    assert all(tuple(x[i] for i in p) in names for x in names for p in group)
    # the core space carries the order Q induces on its points
    assert core.size == len(keep)
    for k, i in enumerate(keep):
        for l, j in enumerate(keep):
            assert core.below[k] >> l & 1 == (le(j, i) and i != j)
            assert core.above[k] >> l & 1 == (le(i, j) and i != j)


def _piece(generators):
    tower = poset_tower(CIRCLE, 2, 0)
    top = tower.top()
    Q = top.restrict(top.down_closure(generators))
    maps = [MonotoneMap(Q, CIRCLE, {x: f.mapping[x] for x in Q.elements})
            for f in (projection_rho(tower, j) for j in (1, 2))]
    return Q, maps


def test_ten_point_circle_piece_is_decided_on_its_core():
    """The down-closure of (c, a) and (d, c) in the square of the 4-point
    circle has 10 points and a core of 4, another circle.  There rho_1 is
    alone in its component; on all of Q its component has 20 of the 812
    monotone maps, rho_2 not among them."""
    Q, maps = _piece({("c", "a"), ("d", "c")})
    assert len(Q.elements) == 10
    res = plain_comb_homotopic(maps, mode="exact")
    assert res.status == "no"
    assert res.record == {"stage": "exact", "core": 4, "explored": 1,
                          "total_nodes": 1, "exhausted_component": True}
    els = list(Q.elements)
    nodes = [tuple(m[x] for x in els) for m in brute_monotone_maps(
        els, Q.le, list(CIRCLE.elements), CIRCLE.le)]
    starts = [tuple(f.mapping[x] for x in els) for f in maps]

    def comparable(a, b):
        return (all(CIRCLE.le(u, w) for u, w in zip(a, b))
                or all(CIRCLE.le(w, u) for u, w in zip(a, b)))

    component = reachable([starts[0]], nodes, comparable)
    assert (len(nodes), len(component)) == (812, 20)
    assert starts[1] not in component


def test_invariant_circle_piece_agrees_with_the_section_route():
    """The down-closure of (c, d) and (d, c): 14 points, Sigma_2-invariant,
    with a core of 6.  The symmetric decider answers "no" on the core, and
    the section route, which works on all of Q, agrees."""
    Q, maps = _piece({("c", "d"), ("d", "c")})
    assert len(Q.elements) == 14
    res = sym_comb_homotopic(maps, 2, 0, mode="exact")
    assert res.status == "no"
    assert res.record["core"] == 6 and res.record["exhausted_component"]
    assert section_search(Q, CIRCLE, 2, 0).status == "no"


def test_a_piece_without_beat_points_is_its_own_core():
    """The whole square of the circle has no beat point: the search runs on
    all 16 points."""
    Q, maps = _piece(set(power_poset(CIRCLE, 2).elements))
    assert len(Q.elements) == 16
    assert sym_comb_homotopic(maps, 2, 0, mode="exact").record["core"] == 16
    assert plain_comb_homotopic(maps, mode="exact").record["core"] == 16
