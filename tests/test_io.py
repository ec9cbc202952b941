"""Documents: the canonical JSON writer reproduces ``json.dumps`` byte for
byte, labels and complexes survive a round trip, and the chain writer gives
the per-table writer's text."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from symtc.complexes import OrderedComplex, from_facets
from symtc.io import canonical_json, complex_from_doc, complex_to_doc
from symtc.util import freeze
from symtc.witnesses import ContiguityChain

from helpers import map_table_rows

texts = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
        st.characters(),
    ),
    max_size=8,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e300, 5e-324]),
    texts,
)
# one dict has keys of one kind, as sort_keys cannot order str against int
keys = st.one_of(
    st.lists(texts, max_size=4),
    st.lists(st.integers(min_value=-(10**20), max_value=10**20), max_size=4),
)


def _documents(leaves, max_leaves=25):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.builds(
                lambda ks, vs: dict(zip(ks, vs)),
                keys,
                st.lists(inner, min_size=4, max_size=4),
            ),
        ),
        max_leaves=max_leaves,
    )


documents = _documents(scalars)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_canonical_json_is_json_dumps(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _Slot(int):
    """A leaf that ``_fill`` replaces by one of the shared tuples."""


def _fill(x, shared):
    if type(x) is _Slot:
        return shared[x % len(shared)]
    if isinstance(x, list):
        return [_fill(m, shared) for m in x]
    if isinstance(x, tuple):
        return tuple(_fill(m, shared) for m in x)
    if isinstance(x, dict):
        return {k: _fill(v, shared) for k, v in x.items()}
    return x


# Documents in which a few tuple objects recur at several depths, as list
# items and as dict values.  The shared tuples hold lists, dicts and tuples,
# so their text spans lines.
documents_sharing_tuples = st.builds(
    _fill,
    _documents(st.one_of(scalars, st.integers(0, 2).map(_Slot))),
    st.lists(st.lists(_documents(scalars, max_leaves=6), min_size=1,
                      max_size=3).map(tuple), min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(documents_sharing_tuples)
def test_canonical_json_with_shared_tuples_is_json_dumps(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


_NAME = ((1, "a"), ("b", (2, [3, {"k": (4, "\n")}])), ())


@pytest.mark.parametrize("doc", [
    # first at depth 4, then shallower as a dict value and a list item
    {"a": [[[_NAME]]], "b": _NAME, "c": [_NAME, {"d": [[_NAME]]}]},
    # first shallow, then deeper, then at the first depth again
    [_NAME, [[{"x": _NAME}]], (_NAME, _NAME[1]), _NAME],
    # a member of the shared tuple first, the tuple itself after
    {"a": [[_NAME[1][1]]], "b": {"c": _NAME}, "d": _NAME[1]},
    (_NAME, _NAME),
])
def test_canonical_json_reuses_tuple_text_at_any_depth(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_deep_report_is_json_dumps(edge):
    """The whole ``sc_sigma(edge, 2, 3)`` report, where every name is one
    tuple shared by vertex lists, facets and map rows."""
    from symtc.complexity import sc_sigma

    doc = sc_sigma(edge, 2, 3).to_doc()
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [
    [], {}, (), [[]], {"a": {}}, [(), {}, [[], [{}]]], "", 0, -1, True, None,
    {1.5: 0, 2.0: 1}, {True: 1, 2: 3}, {None: [1, "x"]},
])
def test_canonical_json_edge_cases(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [{1, 2}, [b"x"], {"a": object()}, {(1,): 2}])
def test_canonical_json_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        canonical_json(doc)


labels = st.recursive(
    st.one_of(st.integers(-3, 3), st.sampled_from(["a", "b", ""])),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(labels)
def test_freeze_inverts_thaw(x):
    """A label written and parsed back freezes to itself."""
    thawed = json.loads(canonical_json(x))
    assert freeze(thawed) == x
    assert json.loads(canonical_json(freeze(thawed))) == thawed


@pytest.mark.parametrize("doc", [
    0, "a", [], [[]], [1, ["a", [2, []]]], {"k": [1]}, [{"k": [1]}, [2]],
    None, True, 1.5,
])
def test_freeze_on_json_values(doc):
    """Lists become tuples at every depth; nothing else changes."""
    def reference(x):
        if isinstance(x, list):
            return tuple(reference(m) for m in x)
        return x

    assert freeze(doc) == reference(doc)
    assert type(freeze(doc)) is type(reference(doc))


def _complexes():
    from symtc.constructions import build_tower
    from symtc.posets import poset_from_relations

    edge = from_facets("ab", [("a", "b")])
    mixed = from_facets([0, 1, "a"], [(0, 1), (1, "a")])
    deep = build_tower(edge, 2, 2).top()
    chain = poset_from_relations([0, 1, 2], [(0, 1), (1, 2)])
    ordered = OrderedComplex(from_facets([0, 1, 2], [(0, 1, 2)]), chain)
    return [edge, mixed, deep, ordered]


@pytest.mark.parametrize("K", _complexes(), ids=repr)
def test_complex_round_trip_interns_facet_members(K):
    again = complex_from_doc(json.loads(canonical_json(complex_to_doc(K))))
    base = getattr(again, "base", again)
    assert base == getattr(K, "base", K)
    assert getattr(again, "order", None) == getattr(K, "order", None)
    ids = {id(v) for v in base.vertices}
    assert all(id(v) in ids for s in base.simplices for v in s)


def _chain_with_tables(levels):
    source = from_facets([(0, 1), (1, 0), ((0, 1), "a")],
                         [[(0, 1), (1, 0)], [((0, 1), "a")]])
    target = from_facets([0, 1, "x"], [[0, 1], ["x"]])
    return ContiguityChain(
        n=2, depth=0, symmetric=False, source=source, target=target,
        levels=levels,
    )


@pytest.mark.parametrize("levels", [
    [[{(0, 1): 0, (1, 0): 1, ((0, 1), "a"): "x"}] * 2],
    # a missing key, an extra key, keys in different insertion orders
    [[{(1, 0): 1, ((0, 1), "a"): "x"},
      {((0, 1), "a"): 0, (0, 1): 0, (1, 0): 1, ("extra", 2): (0, "y")}],
     [{(9,): 1}, {}]],
    [[{"b": 0, 2: 1, (1,): "x", ((1,), "a"): 0}, {2: "x", "a": 1}]],
])
def test_chain_writer_matches_per_table_writer(levels):
    chain = _chain_with_tables(levels)
    old = chain.to_doc()
    old["levels"] = [[map_table_rows(m) for m in level] for level in levels]
    assert canonical_json(chain.to_doc()) == canonical_json(old)
