"""The rank-tuple store of complexes against the name-based reference.

Complexes keep their simplices as sorted tuples of vertex ranks; the
reference in ``helpers.NameComplex`` keeps frozensets of names, closes by
subset enumeration and checks vertex orders pairwise on every simplex.  On
complexes over mixed int, string and nested labels the two must agree on
every simplex query, on the faces of a simplex, on subcomplexes and on
which vertex orders are total on every simplex.
"""

from hypothesis import given, settings, strategies as st

from symtc.complexes import (
    OrderedComplex,
    closure_of,
    from_facets,
    is_subcomplex,
)
from symtc.errors import UnorderedInput
from symtc.posets import all_chains, order_complex, poset_from_relations
from symtc.util import csorted, name_of

from helpers import NameComplex, subsets_closure

MIXED = [0, 1, 2, "a", "b", (0, "a"), ("a", 0), (1,), ((0,), "b"), (("a",),)]
OUTSIDE = "not-a-vertex"


def _labels(max_size=6):
    return st.lists(st.sampled_from(MIXED), min_size=1, max_size=max_size,
                    unique=True)


def _facets(draw, verts):
    return draw(st.lists(
        st.lists(st.sampled_from(verts), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=4,
    ))


@st.composite
def complex_specs(draw):
    verts = draw(_labels())
    return verts, _facets(draw, verts)


@st.composite
def orders_on(draw, verts):
    """A poset on ``verts``: relations drawn along a random linear order,
    so never cyclic; sometimes the whole linear order, often not a chain."""
    line = draw(st.permutations(verts))
    pairs = [(a, b) for i, a in enumerate(line) for b in line[i + 1:]]
    if draw(st.booleans()):
        chosen = list(zip(line, line[1:]))
    else:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)
                      if pairs else st.just([]))
    return poset_from_relations(verts, chosen)


@given(complex_specs(), st.data())
@settings(max_examples=80, deadline=None)
def test_store_matches_name_reference(spec, data):
    verts, facets = spec
    K, ref = from_facets(verts, facets), NameComplex(verts, facets)
    assert K.simplices == ref.simplices
    assert K.simplex_names() == csorted(name_of(s) for s in ref.simplices)
    assert K.facet_names() == csorted(name_of(f) for f in ref.facets())
    assert K.facets == ref.facets()
    probes = data.draw(st.lists(
        st.lists(st.sampled_from(verts + [OUTSIDE]), max_size=4),
        max_size=8,
    ))
    for s in probes:
        assert K.is_simplex(s) == ref.is_simplex(s)


@given(complex_specs())
@settings(max_examples=60, deadline=None)
def test_faces_match_name_reference(spec):
    verts, facets = spec
    K, ref = from_facets(verts, facets), NameComplex(verts, facets)
    vs = K.vertices
    for s in ref.simplices:
        faces, _ = closure_of([tuple(sorted(K.rank[v] for v in s))])
        assert {frozenset([vs[i] for i in t]) for t in faces} == \
            subsets_closure([s])


@given(complex_specs(), st.data())
@settings(max_examples=80, deadline=None)
def test_subcomplex_matches_name_reference(spec, data):
    verts, facets = spec
    sub_verts = data.draw(st.lists(st.sampled_from(verts + [OUTSIDE]),
                                   min_size=1, unique=True))
    sub_facets = _facets(data.draw, sub_verts)
    K, L = from_facets(verts, facets), from_facets(sub_verts, sub_facets)
    ref_K, ref_L = NameComplex(verts, facets), NameComplex(sub_verts,
                                                           sub_facets)
    assert is_subcomplex(L, K) == ref_L.is_subcomplex_of(ref_K)
    assert is_subcomplex(K, L) == ref_K.is_subcomplex_of(ref_L)
    assert is_subcomplex(K, K)


@given(complex_specs(), st.data())
@settings(max_examples=100, deadline=None)
def test_order_check_matches_pairwise_reference(spec, data):
    verts, facets = spec
    K, ref = from_facets(verts, facets), NameComplex(verts, facets)
    order = data.draw(orders_on(verts))
    try:
        OrderedComplex(K, order)
        accepted = True
    except UnorderedInput:
        accepted = False
    assert accepted == ref.totally_ordered(order.le)


@given(_labels(), st.data())
@settings(max_examples=60, deadline=None)
def test_order_complex_is_the_chain_walk(labels, data):
    P = data.draw(orders_on(labels))
    ranked = sorted(
        tuple(sorted(P.index[x] for x in c)) for c in all_chains(P)
    )
    assert list(order_complex(P).base.ranked_simplices()) == ranked
