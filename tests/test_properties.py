"""Property-based checks of the structural invariants."""

import gc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from symtc.actions import (
    act_name,
    act_simplex,
    identity,
    orbit_partition_simplices,
    positions,
    symmetric_group,
)
from symtc.complexes import (
    SimplicialComplex,
    SimplicialMap,
    euler_characteristic,
    from_facets,
)
from symtc.constructions import barycentric_subdivide, totalize
from symtc.errors import CycleDetected, NotEquivariant
from symtc.io import (
    complex_from_doc,
    complex_to_doc,
    poset_from_doc,
    poset_to_doc,
)
from symtc.posets import (
    MonotoneMap,
    all_chains,
    face_poset,
    order_complex,
    poset_from_relations,
    sd_poset,
)
from symtc.search import sym_comb_homotopic, sym_contiguous
from symtc.util import ckey, csorted, name_of

from helpers import brute_chains

# -- strategies --------------------------------------------------------------

VERTS = ["a", "b", "c", "d", "e"]


@st.composite
def small_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    verts = VERTS[:n]
    n_facets = draw(st.integers(min_value=1, max_value=4))
    facets = [
        draw(
            st.lists(
                st.sampled_from(verts), min_size=1, max_size=3, unique=True
            )
        )
        for _ in range(n_facets)
    ]
    return from_facets(verts, facets)


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    els = list(range(n))
    pairs = [(a, b) for a in els for b in els if a != b]
    chosen = draw(
        st.lists(st.sampled_from(pairs), max_size=5, unique=True)
        if pairs
        else st.just([])
    )
    try:
        return poset_from_relations(els, chosen)
    except CycleDetected:
        return poset_from_relations(els, [])


# labels mixing ints, strings and nested tuples of both
MIXED = [0, 1, 2, "a", "b", (0, "a"), ("a", 0), (1,), ((0,), "b"), (("a",),)]


@st.composite
def mixed_complexes(draw):
    verts = draw(st.lists(st.sampled_from(MIXED), min_size=1, max_size=6,
                          unique=True))
    facets = draw(st.lists(
        st.lists(st.sampled_from(verts), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=4,
    ))
    return from_facets(verts, facets)


@st.composite
def acted_families(draw):
    """(group, simplices, depth): simplices over names of the given depth
    (n-tuples, or chain names of n-tuples), closed under the group or not."""
    n = draw(st.integers(min_value=2, max_value=3))
    depth = draw(st.integers(min_value=0, max_value=1))
    tuples = st.tuples(*[st.sampled_from([0, 1, "a"])] * n)
    if depth == 0:
        names = tuples
    else:
        names = st.lists(tuples, min_size=1, max_size=3, unique=True).map(
            name_of
        )
    group = draw(st.sampled_from([
        symmetric_group(n),
        [identity(n)],
        [g for g in symmetric_group(n) if g(1) == 1],
    ]))
    facets = draw(st.lists(
        st.lists(names, min_size=1, max_size=3, unique=True),
        min_size=1, max_size=4,
    ))
    if draw(st.booleans()):
        facets = [act_simplex(g, f, depth) for g in group for f in facets]
    K = SimplicialComplex(set().union(*map(set, facets)), facets)
    return group, K.simplices, depth


# -- complexes ---------------------------------------------------------------


@given(mixed_complexes())
@settings(max_examples=60, deadline=None)
def test_rank_order_is_canonical_name_order(K):
    assert K.simplex_names() == csorted(name_of(s) for s in K.simplices)
    assert K.facet_names() == csorted(name_of(s) for s in K.facets)
    maximal = {
        s for s in K.simplices if not any(s < t for t in K.simplices)
    }
    assert K.facets == maximal
    fp = face_poset(K)
    assert list(fp.elements) == K.simplex_names()
    for a in fp.elements:
        for b in fp.elements:
            assert fp.le(a, b) == (set(a) <= set(b))


def test_csorted_frees_its_memo_on_return():
    """With the collector off, ``csorted`` over nested names leaves no
    cycle behind: its memo of nested keys is freed when it returns."""
    names = [name_of([(i, "a"), (i % 3, ("b", i))]) for i in range(30)]
    want = sorted(names, key=ckey)
    gc.collect()
    gc.disable()
    try:
        got = csorted(names)
        left = gc.collect()
    finally:
        gc.enable()
    assert got == want
    assert left == 0


@given(acted_families())
@settings(max_examples=60, deadline=None)
def test_action_tables_against_act_simplex(family):
    """On an invariant family, the orbits of its complex mapped back to
    names are those of ``act_simplex``; on Sigma_n, the symmetric decider
    refuses exactly the sources it does not preserve."""
    group, simplices, depth = family
    invariant = all(
        act_simplex(g, s, depth) in simplices for g in group for s in simplices
    )
    K = SimplicialComplex(set().union(*simplices), simplices)
    if invariant:
        def key(s):
            return ckey(name_of(s))

        seen, parts = set(), []
        for s in sorted(simplices, key=key):
            if s not in seen:
                orb = {act_simplex(g, s, depth) for g in group}
                seen |= orb
                parts.append(tuple(sorted(orb, key=key)))
        vs = K.vertices
        assert [
            tuple(frozenset([vs[i] for i in t]) for t in orb)
            for orb in orbit_partition_simplices(group, K, depth)
        ] == parts
    if len(group) == len(symmetric_group(group[0].n)):
        # the symmetric decider's source check, on a constant tuple
        point = SimplicialComplex(["p"], [["p"]])
        f = SimplicialMap(K, point, {v: "p" for v in K.vertices})
        _decides_iff_invariant(sym_contiguous, [f] * group[0].n, depth,
                               invariant)


def _decides_iff_invariant(decider, maps, depth, invariant):
    if invariant:
        assert decider(maps, len(maps), depth).yes
    else:
        with pytest.raises(NotEquivariant, match="not an invariant"):
            decider(maps, len(maps), depth)


@given(acted_families())
@settings(max_examples=60, deadline=None)
def test_is_invariant_elements_against_act_name(family):
    """``positions`` against ``act_name``; on Sigma_n, the symmetric
    homotopy decider refuses exactly the sources it does not preserve."""
    group, simplices, depth = family
    for elements in (set().union(*simplices), min(simplices, key=len)):
        names = csorted(elements)
        want = [[names.index(w) if w in elements else None
                 for w in (act_name(g, x, depth) for x in names)]
                for g in group]
        assert positions(group, names, depth) == want
        invariant = all(
            act_name(g, x, depth) in elements for g in group for x in elements
        )
        if len(group) == len(symmetric_group(group[0].n)):
            Q = poset_from_relations(names, [])
            point = poset_from_relations(["p"], [])
            f = MonotoneMap(Q, point, {x: "p" for x in names})
            _decides_iff_invariant(sym_comb_homotopic, [f] * group[0].n,
                                   depth, invariant)



@given(small_complexes())
@settings(max_examples=60, deadline=None)
def test_downward_closure(K):
    for s in K.simplices:
        members = tuple(s)
        for k in range(1, len(members) + 1):
            for sub in combinations(members, k):
                assert K.is_simplex(sub)


@given(small_complexes())
@settings(max_examples=60, deadline=None)
def test_complex_doc_round_trip(K):
    doc = complex_to_doc(K)
    assert complex_from_doc(doc) == K
    assert complex_to_doc(complex_from_doc(doc)) == doc


@given(small_complexes())
@settings(max_examples=30, deadline=None)
def test_subdivision_preserves_euler(K):
    sd = barycentric_subdivide(totalize(K))
    assert euler_characteristic(sd) == euler_characteristic(K)
    assert len(sd.vertices) == len(K.simplices)


@given(small_complexes())
@settings(max_examples=30, deadline=None)
def test_face_poset_order_complex_adjunction(K):
    assert face_poset(order_complex(face_poset(K))) == sd_poset(face_poset(K))


# -- posets ------------------------------------------------------------------


@given(small_posets())
@settings(max_examples=60, deadline=None)
def test_poset_doc_round_trip(P):
    doc = poset_to_doc(P)
    assert poset_from_doc(doc) == P


@given(small_posets())
@settings(max_examples=60, deadline=None)
def test_down_sets_are_open(P):
    for x in P.elements:
        U = P.down_set(x)
        assert P.is_open(U)
        for y in U:
            assert P.down_set(y) <= U


@given(small_posets(), st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_open_union_intersection(P, seed):
    opens = [P.down_set(x) for x in P.elements]
    for A in opens:
        for B in opens:
            assert P.is_open(A | B)
            assert P.is_open(A & B)


@given(small_posets())
@settings(max_examples=25, deadline=None)
def test_adjunction_property(P):
    assert face_poset(order_complex(P)) == sd_poset(P)


# -- the permutation action --------------------------------------------------


@given(
    st.integers(min_value=2, max_value=3),
    st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_action_group_law(n, coords):
    x = tuple(coords[:n]) if n <= len(coords) else tuple(coords) + (0,)
    x = (x + (0,) * n)[:n]
    for g in symmetric_group(n):
        for h in symmetric_group(n):
            assert act_name(h, act_name(g, x, 0), 0) == act_name(g * h, x, 0)


@given(small_posets())
@settings(max_examples=20, deadline=None)
def test_order_complex_simplices_are_chains(P):
    chains = all_chains(P)
    assert len(chains) == len(set(chains))
    assert set(chains) == set(brute_chains(P.elements, P.le))
    oc = order_complex(P)
    for s in oc.base.simplices:
        for a in s:
            for b in s:
                assert P.le(a, b) or P.le(b, a)
