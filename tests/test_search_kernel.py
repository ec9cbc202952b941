"""The packed class-move kernel against the tuple BFS it replaced.

Small map spaces are drawn with Hypothesis: simplicial and monotone, on
singleton classes and on the orbit classes of the coordinate swap.  The
oracle walks value tuples on move masks computed by brute force from the
definitions (every facet image stays a simplex and the step is
1-contiguous; the map stays monotone and comparable with the one before).
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from symtc.actions import act_simplex, orbits_of, positions, symmetric_group
from symtc.complexes import SimplicialComplex, from_facets
from symtc.errors import BudgetExceeded
from symtc.posets import poset_from_relations, power_poset
from symtc.search import _class_bfs, _MonotoneSpace, _SimplicialSpace

from helpers import le_table, tuple_class_bfs


def _class_constant_maps(space, fits):
    """Every value tuple constant on the classes that ``fits``."""
    out = []
    for class_values in product(range(space.nvalues), repeat=len(space.classes)):
        values = [0] * space.size
        for cls, w in zip(space.classes, class_values):
            for i in cls:
                values[i] = w
        if fits(values):
            out.append(tuple(values))
    return out


def _simplicial_oracle(space):
    """(fits, allowed) from the definitions, on target vertex bitmasks."""
    simplices = {sum(1 << space.tindex[v] for v in s) for s in space.target.simplices}

    def image(values, f):
        return sum({1 << values[i] for i in f})

    def fits(values):
        return all(image(values, f) in simplices for f in space.facets)

    def allowed(ci, cur):
        out = 0
        for w in range(space.nvalues):
            nxt = list(cur)
            for i in space.classes[ci]:
                nxt[i] = w
            if all(image(cur, f) | image(nxt, f) in simplices
                   for f in space.facets):
                out |= 1 << w
        return out

    return fits, allowed


def _monotone_oracle(space):
    """(fits, allowed) from the definitions, on the relation tables."""
    q_le, p_le = le_table(space.Q), le_table(space.P)
    pairs = [(i, j) for i in range(space.size) for j in range(space.size)
             if q_le[i][j]]

    def fits(values):
        return all(p_le[values[i]][values[j]] for i, j in pairs)

    def allowed(ci, cur):
        out = 0
        for w in range(space.nvalues):
            nxt = list(cur)
            for i in space.classes[ci]:
                nxt[i] = w
            comparable = (all(p_le[a][b] for a, b in zip(cur, nxt))
                          or all(p_le[b][a] for a, b in zip(cur, nxt)))
            if comparable and fits(nxt):
                out |= 1 << w
        return out

    return fits, allowed


LETTERS = "abcd"


@st.composite
def targets(draw):
    verts = LETTERS[:draw(st.integers(min_value=1, max_value=4))]
    facets = draw(st.lists(
        st.lists(st.sampled_from(verts), min_size=1, max_size=3, unique=True),
        min_size=1, max_size=4,
    ))
    return from_facets(verts, facets)


@st.composite
def simplicial_spaces(draw):
    """A _SimplicialSpace with its oracle: a source on letters without a
    group, or on pairs closed under the coordinate swap with one."""
    target = draw(targets())
    if draw(st.booleans()):
        verts = LETTERS[:draw(st.integers(min_value=1, max_value=4))]
        facets = draw(st.lists(
            st.lists(st.sampled_from(verts), min_size=1, max_size=3,
                     unique=True),
            min_size=1, max_size=4,
        ))
        source = from_facets(sorted(set().union(*facets)), facets)
        space = _SimplicialSpace(source, target)
    else:
        pairs = st.tuples(*[st.sampled_from([0, 1, 2])] * 2)
        facets = draw(st.lists(
            st.lists(pairs, min_size=1, max_size=3, unique=True),
            min_size=1, max_size=3,
        ))
        group = symmetric_group(2)
        facets = [act_simplex(g, f, 0) for g in group for f in facets]
        source = SimplicialComplex(set().union(*map(set, facets)), facets)
        space = _SimplicialSpace(
            source, target, orbits_of(positions(group, source.vertices, 0)))
    return space, _simplicial_oracle(space)


@st.composite
def posets(draw, max_size):
    els = list(range(draw(st.integers(min_value=1, max_value=max_size))))
    pairs = [(a, b) for a in els for b in els if a < b]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)
                  if pairs else st.just([]))
    return poset_from_relations(els, chosen)


@st.composite
def monotone_spaces(draw):
    """A _MonotoneSpace with its oracle: any source without a group, or a
    swap-invariant part of a square P0 x P0 with one."""
    target = draw(posets(4))
    if draw(st.booleans()):
        space = _MonotoneSpace(draw(posets(5)), target)
    else:
        square = power_poset(draw(posets(3)), 2)
        keep = draw(st.lists(st.sampled_from(square.elements), min_size=1,
                             unique=True))
        keep = {x for y in keep for x in (y, y[::-1])}
        Q = square.restrict(keep)
        group = symmetric_group(2)
        space = _MonotoneSpace(Q, target,
                               orbits_of(positions(group, Q.elements, 0)))
    return space, _monotone_oracle(space)


def _compare(data, space, oracle):
    fits, allowed = oracle
    nodes = _class_constant_maps(space, fits)
    start = data.draw(st.sampled_from(nodes))
    goal = data.draw(st.one_of(st.none(), st.sampled_from(nodes)))

    old_parents, old_hit = tuple_class_bfs(
        space.classes, start, allowed, lambda t: t == goal, None
    )
    packed_goal = None if goal is None else space.pack(goal)
    parents, hit = _class_bfs(
        space, space.pack(start), lambda x: x == packed_goal, None
    )

    def unpacked(node):
        return None if node is None else space.unpack(node)

    assert [(unpacked(k), unpacked(v)) for k, v in parents.items()] == list(
        old_parents.items()
    )
    assert unpacked(hit) == old_hit
    explored = len(parents)
    _class_bfs(space, space.pack(start), lambda x: x == packed_goal, explored)
    if explored > 1:
        with pytest.raises(BudgetExceeded):
            _class_bfs(space, space.pack(start), lambda x: x == packed_goal,
                       explored - 1)


@given(simplicial_spaces(), st.data())
@settings(max_examples=80, deadline=None)
def test_simplicial_kernel_matches_tuple_bfs(drawn, data):
    _compare(data, *drawn)


@given(monotone_spaces(), st.data())
@settings(max_examples=80, deadline=None)
def test_monotone_kernel_matches_tuple_bfs(drawn, data):
    _compare(data, *drawn)


def _check_reads(data, space, oracle):
    """Maps that agree on reads[ci] get the same allowed(ci, .), whatever
    they hold elsewhere; the class's head is among the reads."""
    fits, _ = oracle
    cur = data.draw(st.sampled_from(_class_constant_maps(space, fits)))
    ci = data.draw(st.integers(min_value=0, max_value=len(space.classes) - 1))
    reads = set(space.reads[ci])
    assert space.classes[ci][0] in reads
    other = [
        v if i in reads
        else data.draw(st.integers(min_value=0, max_value=space.nvalues - 1))
        for i, v in enumerate(cur)
    ]
    allowed = space.moves()
    assert allowed(ci, other) == allowed(ci, list(cur))


@given(simplicial_spaces(), st.data())
@settings(max_examples=80, deadline=None)
def test_simplicial_moves_read_only_their_reads(drawn, data):
    _check_reads(data, *drawn)


@given(monotone_spaces(), st.data())
@settings(max_examples=80, deadline=None)
def test_monotone_moves_read_only_their_reads(drawn, data):
    _check_reads(data, *drawn)
