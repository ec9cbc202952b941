"""The canonical JSON writer reproduces ``json.dumps`` byte for byte."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from symtc.io import canonical_json

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
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(
            lambda ks, vs: dict(zip(ks, vs)),
            keys,
            st.lists(inner, min_size=4, max_size=4),
        ),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_canonical_json_is_json_dumps(doc):
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
