from itertools import product

import pytest

from symtc.actions import (
    Permutation,
    act_fence_point,
    act_name,
    act_simplex,
    action_tables,
    check_equivariant_tuple,
    identity,
    is_invariant_simplices,
    orbit_partition,
    symmetric_group,
    transposition,
    tuple_constraint_group,
)
from symtc.constructions import build_tower, ordered_power, totalize


def test_act_tuple():
    g = transposition(2, 1, 2)
    assert act_name(g, ("a", "b"), 0) == ("b", "a")
    assert act_name(identity(2), ("a", "b"), 0) == ("a", "b")


def test_act_chain_name():
    g = transposition(2, 1, 2)
    chain = ((("a", "b"),), (("a", "b"), ("b", "b")))
    want = ((("b", "a"),), (("b", "a"), ("b", "b")))
    assert act_name(g, chain, 2) == want


def test_act_fixed_point():
    g = transposition(2, 1, 2)
    assert act_name(g, ("a", "a"), 0) == ("a", "a")


def test_composition_convention():
    # the coordinate-permuting action composes contravariantly:
    # acting by g then by g' equals acting by g o g'
    n = 3
    x = ("x1", "x2", "x3")
    for g in symmetric_group(n):
        for h in symmetric_group(n):
            lhs = act_name(h, act_name(g, x, 0), 0)
            rhs = act_name(g * h, x, 0)
            assert lhs == rhs
    e = identity(n)
    assert act_name(e, x, 0) == x


def test_orbit():
    group = symmetric_group(2)

    def orbit(x):
        return {t[x] for t in action_tables(group, [x], 0)}

    assert orbit(("a", "b")) == {("a", "b"), ("b", "a")}
    assert orbit(("a", "a")) == {("a", "a")}


def test_symmetrize_square_facet(edge):
    power = ordered_power(totalize(edge), 2)
    sq = power.result
    group = symmetric_group(2)
    facet = frozenset([("a", "a"), ("a", "b"), ("b", "b")])
    orb = {act_simplex(g, facet, 0) for g in group}
    # the swap sends one triangle to the other; together with faces they
    # exhaust the square
    simplices = set()
    for s in orb:
        for k in range(1, len(s) + 1):
            from itertools import combinations

            for sub in combinations(s, k):
                simplices.add(frozenset(sub))
    assert simplices == set(sq.simplices)


def test_is_invariant(edge):
    power = ordered_power(totalize(edge), 2)
    sq = power.result
    group = symmetric_group(2)
    assert is_invariant_simplices(sq.simplices, group, 0)
    one_facet = {frozenset([("a", "a"), ("a", "b"), ("b", "b")])}
    assert not is_invariant_simplices(one_facet, group, 0)


def test_constraint_group_n2_trivial():
    assert [g.images for g in tuple_constraint_group(2).elements] == [(1, 2)]


def test_constraint_group_n3_is_stabilizer():
    G = tuple_constraint_group(3)
    images = {g.images for g in G.elements}
    assert images == {(1, 2, 3), (1, 3, 2)}  # the stabilizer of index 1


def test_equivariance_characterization_exhaustive():
    """Expansion of f1 is equivariant iff f1 is constraint-group invariant.

    Verified exhaustively for n = 2, 3 on small tuple domains.
    """
    for n, base in ((2, [0, 1]), (3, [0, 1])):
        dom = [tuple(t) for t in product(base, repeat=n)]
        G = tuple_constraint_group(n)
        Sn = symmetric_group(n)
        for bits in product([0, 1], repeat=len(dom)):
            f1 = dict(zip(dom, bits))
            ginv = all(
                f1[act_name(g, x, 0)] == f1[x]
                for g in G.elements
                for x in dom
            )
            maps = [
                {x: f1[act_name(transposition(n, 1, j), x, 0)] for x in dom}
                for j in range(1, n + 1)
            ]
            ok, _ = check_equivariant_tuple(maps, n, 0, domain=dom)
            assert ok == ginv


def test_reduce_rejects_nonequivariant():
    """A tuple that is not equivariant does not reduce to its first map:
    the check names the group element, point and branch that break it."""
    dom = [(0, 0), (0, 1), (1, 0), (1, 1)]
    maps = [{x: 0 for x in dom}, {x: 0 for x in dom}]
    maps[1][(0, 1)] = 1  # breaks f_2(gx) = f_1(x)
    ok, violation = check_equivariant_tuple(maps, 2, 0, domain=dom)
    assert not ok
    assert violation == (transposition(2, 1, 2), (0, 1), 1)


def test_functoriality_act_then_subdivide(edge):
    """Acting on a subdivision vertex equals subdividing the acted simplex."""
    tower = build_tower(edge, 2, 1)
    g = transposition(2, 1, 2)
    for v in tower.levels[1].vertices:
        # v is a simplex of the square, named canonically
        acted = act_name(g, v, 1)
        memberwise = tuple(
            sorted(
                (act_name(g, m, 0) for m in v),
                key=lambda t: (t,),
            )
        )
        assert frozenset(acted) == frozenset(memberwise)


def test_orbit_partition_deterministic():
    group = symmetric_group(2)
    names = [("a", "b"), ("b", "a"), ("a", "a")]
    parts = orbit_partition(group, names, 0)
    assert parts == [(("a", "a"),), (("a", "b"), ("b", "a"))]


def test_fence_point_action():
    g = transposition(2, 1, 2)
    assert act_fence_point(g, (1, 1)) == (1, 2)
    assert act_fence_point(g, (0, 0)) == (0, 0)


def test_permutation_algebra():
    g = Permutation([2, 3, 1])
    assert g * Permutation([3, 1, 2]) == identity(3)
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
