import sys
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from symtc.errors import (
    BadArity,
    BudgetExceeded,
    CycleDetected,
    UnknownElement,
)
from symtc.io import poset_from_doc, poset_to_doc
from symtc.posets import (
    FinitePoset,
    MonotoneWalk,
    _componentwise,
    all_chains,
    face_poset,
    multi_fence,
    order_complex,
    poset_from_relations,
    power_poset,
    sd_poset,
)

from helpers import brute_chains, brute_monotone_maps


def test_v_poset(v_poset):
    assert v_poset.le("p", "r") and v_poset.le("q", "r")
    assert not v_poset.le("p", "q")
    assert v_poset.down_set("r") == frozenset("pqr")
    assert v_poset.down_set("p") == frozenset("p")


def test_circle_closure(circle_poset):
    # closure adds only the reflexive pairs
    els = circle_poset.elements
    assert sum(circle_poset.le(a, b) for a in els for b in els) == 4 + 4


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        poset_from_relations("ab", [("a", "b"), ("b", "a")])


def test_unknown_element():
    with pytest.raises(UnknownElement):
        poset_from_relations("ab", [("a", "z")])
    V = poset_from_relations("ab", [("a", "b")])
    with pytest.raises(UnknownElement):
        V.down_set("z")


def test_is_open(v_poset):
    assert not v_poset.is_open({"r"})
    assert v_poset.is_open({"p"})
    assert v_poset.is_open({"p", "q"})
    assert v_poset.is_open({"p", "q", "r"})


def test_opens_closed_under_union_intersection(v_poset):
    opens = [
        S
        for S in map(
            frozenset,
            [
                (),
                ("p",),
                ("q",),
                ("p", "q"),
                ("p", "q", "r"),
            ],
        )
        if v_poset.is_open(S)
    ]
    for A in opens:
        for B in opens:
            assert v_poset.is_open(A | B)
            assert v_poset.is_open(A & B)


def test_order_complex_chain(chain3):
    oc = order_complex(chain3)
    assert len(oc.base.simplices) == 7  # a full 2-simplex
    assert oc.base.is_simplex({0, 1, 2})


def test_order_complex_v(v_poset):
    oc = order_complex(v_poset)
    assert oc.base.facet_names() == [("p", "r"), ("q", "r")]


def test_order_complex_circle(circle_poset):
    oc = order_complex(circle_poset)
    # the 4-cycle graph: 4 vertices, 4 edges, no triangles
    assert len(oc.base.vertices) == 4
    assert len(oc.base.simplices) == 8
    assert max(map(len, oc.base.ranked_simplices())) == 2


def test_face_poset_edge(edge):
    fp = face_poset(edge)
    assert set(fp.elements) == {("a",), ("b",), ("a", "b")}
    assert fp.le(("a",), ("a", "b"))
    assert not fp.le(("a", "b"), ("a",))


def test_face_poset_point(point_complex):
    assert len(face_poset(point_complex).elements) == 1


def test_face_poset_hollow_triangle_gives_hexagon(hollow_triangle):
    fp = face_poset(hollow_triangle)
    assert len(fp.elements) == 6
    oc = order_complex(fp)
    # a hexagon: 6 vertices and 6 edges
    assert len(oc.base.vertices) == 6
    assert len([s for s in oc.base.simplices if len(s) == 2]) == 6


def test_sd_poset_chain(chain2):
    sd = sd_poset(chain2)
    assert set(sd.elements) == {(0,), (1,), (0, 1)}
    assert sd.le((0,), (0, 1))


def test_sd_poset_point(point_poset):
    assert len(sd_poset(point_poset).elements) == 1


def test_sd_poset_v(v_poset):
    sd = sd_poset(v_poset)
    assert len(sd.elements) == 5  # 3 singletons + 2 two-chains


def test_adjunction(v_poset, chain3, circle_poset):
    for P in (v_poset, chain3, circle_poset):
        assert face_poset(order_complex(P)) == sd_poset(P)


def test_chains_against_oracle(circle_poset):
    sd = sd_poset(circle_poset)
    oracle = brute_chains(circle_poset.elements, circle_poset.le)
    assert len(sd.elements) == len(oracle)


def test_chain_walk_stops_at_budget():
    """The walk raises as soon as it finds one chain more than the budget."""
    chain16 = poset_from_relations(range(16), [(i, i + 1) for i in range(15)])
    total = 2**16 - 1
    assert len(all_chains(chain16, budget=total)) == total
    with pytest.raises(BudgetExceeded, match=f"more than {total - 1} chains"):
        all_chains(chain16, budget=total - 1)
    with pytest.raises(BudgetExceeded, match="more than 10 chains"):
        all_chains(chain16, budget=10)


def test_mapping_poset_is_poset(chain2):
    """The monotone self-maps of a 2-chain under the pointwise order: a
    3-chain."""
    maps = sorted(
        tuple(chain2.index[f[x]] for x in chain2.elements)
        for f in brute_monotone_maps(
            chain2.elements, chain2.le, chain2.elements, chain2.le
        )
    )
    mp = FinitePoset(maps, _componentwise(chain2, maps))
    assert len(mp.elements) == 3
    bot, mid, top = (0, 0), (0, 1), (1, 1)
    assert mp.le(bot, mid) and mp.le(mid, top) and not mp.le(mid, bot)


def test_fence():
    """Each branch of J_{n,m} is the zigzag 0 <= 1 >= 2 <= 3."""
    J = multi_fence(2, 3).poset
    for j in (1, 2):
        assert J.le((0, 0), (1, j)) and J.le((2, j), (1, j))
        assert J.le((2, j), (3, j))
        assert not J.le((0, 0), (2, j))


def test_multi_fence_sizes():
    assert len(multi_fence(2, 2).poset.elements) == 5
    J31 = multi_fence(3, 1)
    assert len(J31.poset.elements) == 4
    for j in (1, 2, 3):
        assert J31.poset.le((0, 0), (1, j))
    assert len(multi_fence(2, 0).poset.elements) == 1
    with pytest.raises(BadArity):
        multi_fence(1, 2)
    with pytest.raises(BadArity):
        multi_fence(2, -1)


def test_multi_fence_end():
    J = multi_fence(2, 2)
    assert J.end(1) == (2, 1)
    assert multi_fence(2, 0).end(2) == (0, 0)


def test_power_poset(chain2):
    grid = power_poset(chain2, 2)
    assert len(grid.elements) == 4
    assert grid.le((0, 0), (1, 1))
    assert not grid.le((0, 1), (1, 0))


def test_power_of_the_empty_poset():
    empty = poset_from_relations([], [])
    assert len(power_poset(empty, 2).elements) == 0


def test_poset_doc_round_trip(v_poset, circle_poset):
    for P in (v_poset, circle_poset):
        doc = poset_to_doc(P)
        assert poset_from_doc(doc) == P
        assert poset_to_doc(poset_from_doc(doc)) == doc


def test_connectivity(v_poset):
    assert v_poset.is_connected()
    two = poset_from_relations("ab", [])
    assert not two.is_connected()
    assert not poset_from_relations([], []).is_connected()


def test_value_tuples_depth_is_not_recursion_depth():
    """The walk fills one class after another without recursion, so a
    source with more classes than the recursion limit allows frames works,
    also when the last class sends it back up through all of them: on the
    chain 299 < ... < 0 with 299 held at 1, every element takes 1."""
    anti = poset_from_relations(range(300), [])
    chain = poset_from_relations(range(300), [(i + 1, i) for i in range(299)])
    two = poset_from_relations([0, 1], [(0, 1)])
    flat, deep = MonotoneWalk(anti, two), MonotoneWalk(chain, two)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        first = flat.first([flat.full] * 300)
        raised = deep.first([deep.full] * 299 + [0b10])
    finally:
        sys.setrecursionlimit(limit)
    assert first == (0,) * 300
    assert raised == (1,) * 300


@st.composite
def _small_poset(draw, size):
    pairs = list(combinations(range(size), 2))
    rel = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return poset_from_relations(range(size), rel)


@st.composite
def enumeration_cases(draw):
    nq = draw(st.integers(min_value=1, max_value=5))
    npp = draw(st.integers(min_value=1, max_value=4))
    Q, P = draw(_small_poset(nq)), draw(_small_poset(npp))
    classes = None
    if draw(st.booleans()):
        label = draw(
            st.lists(st.integers(0, nq - 1), min_size=nq, max_size=nq)
        )
        groups = {}
        for i in draw(st.permutations(range(nq))):
            groups.setdefault(label[i], []).append(i)
        classes = [groups[c] for c in draw(st.permutations(sorted(groups)))]
    allowed = None
    if draw(st.booleans()):
        allowed = [
            draw(st.sets(st.integers(0, npp - 1), max_size=npp))
            for _ in range(nq)
        ]
    return Q, P, classes, allowed


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(enumeration_cases())
def test_value_tuples_against_oracle(case):
    """The walk's map is the oracle's lowest class-constant allowed map in
    lex order of the class values, and None when there is no such map."""
    Q, P, classes, allowed = case
    order = classes or [[i] for i in range(len(Q.elements))]
    expected = []
    for m in brute_monotone_maps(Q.elements, Q.le, P.elements, P.le):
        t = tuple(P.index[m[x]] for x in Q.elements)
        if any(len({t[i] for i in cls}) > 1 for cls in order):
            continue
        if allowed is not None and any(
            t[i] not in allowed[i] for i in range(len(t))
        ):
            continue
        expected.append(t)
    expected.sort(key=lambda t: [t[cls[0]] for cls in order])

    walk = MonotoneWalk(Q, P, classes)
    masks = [walk.full] * len(Q.elements)
    if allowed is not None:
        masks = [sum(1 << v for v in a) for a in allowed]
    assert walk.first(masks) == (expected[0] if expected else None)
