"""The bitmask order of FinitePoset against a brute-force relation.

Posets are drawn as random acyclic relations on mixed int, str and tuple
labels, with the acyclic order set independently of the canonical label
order.  The reference order is the reflexive-transitive closure of the
generating pairs as a set of label pairs; every query and constructor is
compared with what that set says, including the exact list of covering
pairs in row-major order, which ``poset_to_doc`` writes.
"""

from itertools import combinations, product

from hypothesis import given, settings, strategies as st

from symtc.complexes import SimplicialComplex
from symtc.posets import (
    FinitePoset,
    _componentwise,
    face_poset,
    poset_from_relations,
    power_poset,
)
from symtc.util import csorted

from helpers import brute_monotone_maps

LABELS = st.one_of(
    st.integers(min_value=-5, max_value=20),
    st.text(alphabet="abcxy", min_size=1, max_size=2),
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from("pq")),
)


@st.composite
def relations(draw, max_size=6):
    """(labels, generating pairs): each pair runs from an earlier to a later
    label of a random arrangement, so the relation has no cycle."""
    labels = draw(st.lists(LABELS, max_size=max_size, unique=True))
    arranged = draw(st.permutations(labels))
    pairs = list(combinations(arranged, 2))
    gens = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    return labels, gens


def closure(labels, gens):
    """The reflexive-transitive closure of ``gens`` as a set of pairs."""
    rel = {(x, x) for x in labels} | set(gens)
    while True:
        more = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        if not more:
            return rel
        rel |= more


def agrees(P, labels, rel):
    """P has the canonically sorted labels and exactly the order ``rel``."""
    assert P.elements == tuple(csorted(labels))
    for a, b in product(labels, repeat=2):
        assert P.le(a, b) == ((a, b) in rel), (a, b)


@given(relations())
@settings(max_examples=200, deadline=None)
def test_queries_against_the_relation(drawn):
    labels, gens = drawn
    rel = closure(labels, gens)
    P = poset_from_relations(labels, gens)
    agrees(P, labels, rel)
    for x in labels:
        assert P.down_set(x) == {a for a in labels if (a, x) in rel}
        assert P.up_set(x) == {b for b in labels if (x, b) in rel}
    els = P.elements
    strict = {(a, b) for a, b in rel if a != b}
    assert P.covers() == [
        (a, b) for a in els for b in els
        if (a, b) in strict
        and not any((a, c) in strict and (c, b) in strict for c in els)
    ]
    seen, todo = set(labels[:1]), list(labels[:1])
    while todo:
        x = todo.pop()
        for y in labels:
            if y not in seen and ((x, y) in rel or (y, x) in rel):
                seen.add(y)
                todo.append(y)
    assert P.is_connected() == (bool(labels) and seen == set(labels))


@given(relations(), st.data())
@settings(max_examples=200, deadline=None)
def test_restrict_against_the_relation(drawn, data):
    labels, gens = drawn
    rel = closure(labels, gens)
    S = data.draw(st.lists(st.sampled_from(labels), unique=True)
                  if labels else st.just([]))
    agrees(poset_from_relations(labels, gens).restrict(S), S,
           {(a, b) for a, b in rel if a in S and b in S})


@given(relations(max_size=4), st.sampled_from([2, 3]))
@settings(max_examples=100, deadline=None)
def test_power_against_the_componentwise_relation(drawn, n):
    labels, gens = drawn
    rel = closure(labels, gens)
    tuples = list(product(labels, repeat=n))
    agrees(power_poset(poset_from_relations(labels, gens), n), tuples, {
        (s, t) for s in tuples for t in tuples
        if all((a, b) in rel for a, b in zip(s, t))
    })


@given(relations(max_size=4), relations(max_size=3))
@settings(max_examples=100, deadline=None)
def test_mapping_poset_against_pointwise_maps(source, target):
    Q, P = (poset_from_relations(*drawn) for drawn in (source, target))
    rel = closure(*target)
    maps = [
        tuple(f[x] for x in Q.elements)
        for f in brute_monotone_maps(Q.elements, Q.le, P.elements, P.le)
    ]
    # the maps as value-index rows, canonically sorted, under the
    # componentwise order of their values
    tuples = sorted(tuple(P.index[v] for v in f) for f in maps)
    named = [tuple(P.elements[v] for v in t) for t in tuples]
    agrees(FinitePoset(named, _componentwise(P, tuples)), maps, {
        (f, g) for f in maps for g in maps
        if all((a, b) in rel for a, b in zip(f, g))
    })


@given(st.lists(st.lists(LABELS, min_size=1, max_size=3, unique=True),
                min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_face_poset_against_face_inclusion(facets):
    vertices = {v for f in facets for v in f}
    K = SimplicialComplex(vertices, facets)
    names = [tuple(csorted(f)) for f in
             {frozenset(s) for f in facets
              for k in range(1, len(f) + 1) for s in combinations(f, k)}]
    agrees(face_poset(K), names, {
        (s, t) for s in names for t in names if set(s) <= set(t)
    })
