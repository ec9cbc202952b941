"""The contiguity-chain checker against a per-simplex, name-based oracle.

``helpers.chain_failures`` looks every source simplex's image up as a
frozenset of target names.  Drawn certificates are small chains at n = 2
and n = 3, symmetric or plain, over plain or ordered targets, with levels
that send vertices outside the target, miss vertices, carry extra keys,
break the diagonal or break equivariance.  ``validate`` must return the
oracle's verdict and the oracle's failure list, in the same order.
"""

from itertools import product

from hypothesis import HealthCheck, given, settings, strategies as st

from symtc.actions import act_name, symmetric_group
from symtc.complexes import OrderedComplex, from_facets
from symtc.errors import SymtcError
from symtc.posets import poset_from_relations
from symtc.util import name_of
from symtc.verify import validate
from symtc.witnesses import ContiguityChain

from helpers import chain_failures

LABELS = [0, 1, 2, "a", "b"]
OUTSIDE = "z"


def _one_in(draw, k):
    """True with chance 1/k; the hit is a middle value, since Hypothesis
    draws the ends of a range more often."""
    return draw(st.integers(0, k - 1)) == k // 2


def _subsets(draw, items, min_size, max_size):
    return draw(st.lists(
        st.sampled_from(items), min_size=min_size, max_size=max_size,
        unique=True,
    ))


@st.composite
def chains(draw):
    n = draw(st.sampled_from([2, 3]))
    depth = draw(st.sampled_from([0, 0, 1]))
    symmetric = draw(st.booleans())
    labels = _subsets(draw, LABELS, 1, 3)

    # target: a complex on the labels, ordered by list position when the
    # certificate claims projection endpoints (an order is total on any
    # simplex then)
    if draw(st.booleans()):
        tfacets = [labels]
    else:
        tfacets = draw(st.lists(
            st.lists(st.sampled_from(labels), min_size=1, max_size=3,
                     unique=True),
            min_size=1, max_size=4,
        ))
    target = from_facets(labels, tfacets)
    projection = draw(st.booleans())
    if projection and not _one_in(draw, 5):
        order = poset_from_relations(
            labels, list(zip(labels, labels[1:]))
        )
        target = OrderedComplex(target, order)

    # source: names over n-tuples of labels (one outside label may slip in),
    # closed under the group when the draw says so
    coords = labels + [OUTSIDE] * _one_in(draw, 6)
    base = _subsets(draw, list(product(coords, repeat=n)), 1, 4)
    if depth == 0:
        names = base
    else:
        names = draw(st.lists(
            st.lists(st.sampled_from(base), min_size=1, max_size=2,
                     unique=True).map(name_of),
            min_size=1, max_size=4, unique=True,
        ))
    if symmetric and not _one_in(draw, 4):
        group = symmetric_group(n)
        names = sorted({act_name(g, x, depth) for g in group for x in names},
                       key=repr)
    facets = draw(st.lists(
        st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True),
        min_size=1, max_size=4,
    ))
    source = from_facets(names, facets)
    verts = list(source.vertices)
    values = labels + [OUTSIDE] * _one_in(draw, 5)

    def drawn_map(j):
        kind = draw(st.sampled_from(["constant", "projection", "random"]))
        if kind == "constant":
            c = draw(st.sampled_from(labels))
            return {v: c for v in verts}
        if kind == "projection" and depth == 0:
            return {v: v[j - 1] for v in verts}
        return {v: draw(st.sampled_from(values)) for v in verts}

    levels = []
    for l in range(draw(st.integers(1, 3))):
        if l == 0 and not _one_in(draw, 4):
            first = drawn_map(1)
            level = [dict(first) for _ in range(n)]
        else:
            level = [drawn_map(j) for j in range(1, n + 1)]
        if _one_in(draw, 10):
            level = level[:-1]
        levels.append(level)
    for _ in range(draw(st.integers(0, 2))):
        level = levels[draw(st.integers(0, len(levels) - 1))]
        if not level:
            continue
        vm = level[draw(st.integers(0, len(level) - 1))]
        v = draw(st.sampled_from(verts))
        edit = draw(st.sampled_from(["drop", "extra", "outside", "change"]))
        if edit == "drop":
            vm.pop(v, None)
        elif edit == "extra":
            vm[("extra",) * n] = draw(st.sampled_from(values))
        elif edit == "outside":
            vm[v] = OUTSIDE
        else:
            vm[v] = draw(st.sampled_from(labels))
    return ContiguityChain(
        n=n, depth=depth, symmetric=symmetric, source=source, target=target,
        levels=levels, projection_endpoints=projection,
    )


def _outcome(check, cert):
    try:
        rep = check(cert)
    except SymtcError as exc:
        # a name at the wrong depth, or a coordinate outside the order
        return type(exc).__name__
    return rep if isinstance(rep, tuple) else (rep.ok, rep.failures)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chains())
def test_chain_checker_matches_name_oracle(cert):
    assert _outcome(validate, cert) == _outcome(chain_failures, cert)
