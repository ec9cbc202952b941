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
    orbit_partition,
    positions,
    reduction,
    symmetric_group,
    transposition,
)
import symtc.actions
from symtc.complexes import SimplicialComplex, SimplicialMap
from symtc.constructions import (
    build_tower,
    ordered_power,
    poset_tower,
    projection_pi,
    projection_rho,
    totalize,
)
from symtc.errors import NotEquivariant
from symtc.posets import power_poset
from symtc.search import sym_comb_homotopic, sym_contiguous
from symtc.sections import section_search
from symtc.translate import homotopy_to_contiguity


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
    assert simplices == set(sq.base.simplices)


def _constant_tuple(source, n):
    """n copies of the constant map from ``source`` to a point, an
    equivariant tuple on any source."""
    point = SimplicialComplex(["p"], [["p"]])
    f = SimplicialMap(source, point, {v: "p" for v in source.vertices})
    return [f] * n


def test_is_invariant(edge):
    """The symmetric decider accepts the square, which the swap preserves,
    and refuses one of its two triangles."""
    sq = ordered_power(totalize(edge), 2).result.base
    assert sym_contiguous(_constant_tuple(sq, 2), 2, 0).yes
    facet = [("a", "a"), ("a", "b"), ("b", "b")]
    one_facet = SimplicialComplex(facet, [facet])
    with pytest.raises(NotEquivariant, match="not an invariant subcomplex"):
        sym_contiguous(_constant_tuple(one_facet, 2), 2, 0)


def _generated(gens):
    """The closure of permutations under composition, by brute force."""
    els = set(gens)
    while True:
        more = {a * b for a in els for b in els} - els
        if not more:
            return els
        els |= more


def _decider_classes(n, dom):
    group = symmetric_group(n)
    return reduction(group, positions(group, dom, 0))[0]


def test_constraint_group_n2_trivial():
    """At n = 2 the subgroup generated by (1, g(j)) g (1, j) is trivial, so
    a symmetric decider's first map has one class per point."""
    dom = [tuple(t) for t in product([0, 1, 2], repeat=2)]
    gens = [transposition(2, 1, g(j)) * g * transposition(2, 1, j)
            for g in symmetric_group(2) for j in (1, 2)]
    assert {g.images for g in _generated(gens)} == {(1, 2)}
    assert _decider_classes(2, dom) == [[i] for i in range(len(dom))]


def test_constraint_group_n3_is_stabilizer():
    """At n = 3 that subgroup is the stabilizer of index 1, and the
    decider's classes are its orbits: x and (x1, x3, x2)."""
    gens = [transposition(3, 1, g(j)) * g * transposition(3, 1, j)
            for g in symmetric_group(3) for j in (1, 2, 3)]
    stab = _generated(gens)
    assert {g.images for g in stab} == {(1, 2, 3), (1, 3, 2)}
    dom = [tuple(t) for t in product([0, 1, "a"], repeat=3)]
    classes = _decider_classes(3, dom)
    want = []
    for x in dom:
        orb = sorted({dom.index(act_name(g, x, 0)) for g in stab})
        if orb not in want:
            want.append(orb)
    assert classes == want


def test_equivariance_characterization_exhaustive():
    """Expansion of f1 is equivariant iff f1 is invariant under the
    stabilizer of index 1, iff it is constant on the decider's classes.

    Verified exhaustively for n = 2, 3 on small tuple domains.
    """
    for n, base in ((2, [0, 1]), (3, [0, 1])):
        dom = [tuple(t) for t in product(base, repeat=n)]
        Sn = symmetric_group(n)
        stab = [g for g in Sn if g(1) == 1]
        classes = _decider_classes(n, dom)
        for bits in product([0, 1], repeat=len(dom)):
            f1 = dict(zip(dom, bits))
            ginv = all(
                f1[act_name(g, x, 0)] == f1[x]
                for g in stab
                for x in dom
            )
            assert ginv == all(bits[i] == bits[c[0]]
                               for c in classes for i in c)
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


def _count_tables(monkeypatch):
    calls = []
    tables = symtc.actions.action_tables

    def counted(*args):
        calls.append(args)
        return tables(*args)

    monkeypatch.setattr(symtc.actions, "action_tables", counted)
    return calls


def test_one_action_table_per_source(monkeypatch, hollow_triangle, v_poset):
    """Each symmetric decision, section search and homotopy translation
    acts on its source's names once, and reads every check, class and
    branch from that one table."""
    tower = build_tower(hollow_triangle, 2, 0)
    pis = [projection_pi(tower, j) for j in (1, 2)]
    tower = poset_tower(v_poset, 2, 0)
    rhos = [projection_rho(tower, j) for j in (1, 2)]
    homotopy = sym_comb_homotopic(rhos, 2, 0)
    assert homotopy.yes and homotopy.witness.m == 2
    runs = {
        "sym_contiguous": lambda: sym_contiguous(pis, 2, 0),
        "sym_comb_homotopic": lambda: sym_comb_homotopic(rhos, 2, 0),
        "section_search": lambda: section_search(
            power_poset(v_poset, 2), v_poset, 2, 0),
        "homotopy_to_contiguity": lambda: homotopy_to_contiguity(
            homotopy.witness),
    }
    calls = _count_tables(monkeypatch)
    counts = {}
    for name, run in runs.items():
        calls.clear()
        run()
        counts[name] = len(calls)
    assert counts == dict.fromkeys(runs, 1)
