import pytest

from symtc.complexes import SimplicialMap, subcomplex_from_simplices
from symtc.constructions import (
    build_tower,
    poset_tower,
    projection_pi,
    projection_rho,
)
from symtc.errors import NotEquivariant, UnsupportedMode
from symtc.posets import MonotoneMap, poset_from_relations
from symtc.search import (
    plain_comb_homotopic,
    plain_contiguous,
    sym_comb_homotopic,
    sym_contiguous,
)
from symtc.verify import validate
from symtc.witnesses import ContiguityChain

from helpers import brute_monotone_maps, brute_simplicial_maps, reachable


def proj_maps(K, n, r):
    tower = build_tower(K, n, r)
    return tower, [projection_pi(tower, j) for j in range(1, n + 1)]


def rho_maps(P, n, r):
    tower = poset_tower(P, n, r)
    return tower, [projection_rho(tower, j) for j in range(1, n + 1)]


def one_contiguous(phi, psi):
    """Does the chain checker accept phi, psi as a one-step chain, that is,
    is each phi(s) union psi(s) a simplex of the target?"""
    chain = ContiguityChain(
        n=1, depth=0, symmetric=False, source=phi.source, target=phi.target,
        levels=[[phi.vertex_map], [psi.vertex_map]],
    )
    return bool(validate(chain))


def test_one_contiguous_reflexive(hollow_triangle):
    from symtc.complexes import identity_map

    f = identity_map(hollow_triangle)
    assert one_contiguous(f, f)


def test_one_contiguous_constants_into_edge(edge, hollow_triangle):
    ca = SimplicialMap(hollow_triangle, edge, {v: "a" for v in "abc"})
    cb = SimplicialMap(hollow_triangle, edge, {v: "b" for v in "abc"})
    assert one_contiguous(ca, cb)


def test_one_contiguous_on_hexagon(hollow_triangle):
    """Constants into adjacent vertices are contiguous; a constant against
    the last-element map on the hexagon subdivision is not."""
    from symtc.constructions import barycentric_subdivide, iota, totalize

    K = totalize(hollow_triangle)
    hexagon = barycentric_subdivide(K)
    approx = iota(K, sd=hexagon)
    c_a = SimplicialMap(
        hexagon.base, K.base, {v: "a" for v in hexagon.vertices}
    )
    c_b = SimplicialMap(
        hexagon.base, K.base, {v: "b" for v in hexagon.vertices}
    )
    assert one_contiguous(c_a, c_b)
    assert not one_contiguous(c_a, approx)


def test_one_contiguous_negative(hollow_triangle):
    # constants at two vertices of the hollow triangle are contiguous,
    # but a map hitting all three vertices unions to a non-simplex
    ca = SimplicialMap(hollow_triangle, hollow_triangle, {v: "a" for v in "abc"})
    cb = SimplicialMap(hollow_triangle, hollow_triangle, {v: "b" for v in "abc"})
    assert one_contiguous(ca, cb)
    rot = SimplicialMap(
        hollow_triangle, hollow_triangle, {"a": "b", "b": "c", "c": "a"}
    )
    ident = SimplicialMap(
        hollow_triangle, hollow_triangle, {"a": "a", "b": "b", "c": "c"}
    )
    assert not one_contiguous(rot, ident)


def test_square_sym_contiguous(edge):
    tower, maps = proj_maps(edge, 2, 0)
    res = sym_contiguous(maps, 2, 0, mode="exact", target_ordered=tower.factor)
    assert res.yes
    assert res.witness.c <= 2
    assert validate(res.witness)


def test_square_agrees_with_brute_force(edge):
    tower, maps = proj_maps(edge, 2, 0)
    sq = tower.top().base
    K = tower.factor.base
    # oracle: all simplicial maps, full reachability from pi_1
    oracle_maps = brute_simplicial_maps(
        sq.vertices, sq.simplices, K.vertices, K.simplices
    )
    keys = [tuple(m[v] for v in sq.vertices) for m in oracle_maps]

    def adjacent(k1, k2):
        m1 = dict(zip(sq.vertices, k1))
        m2 = dict(zip(sq.vertices, k2))
        return all(
            K.is_simplex(
                frozenset(m1[v] for v in s) | frozenset(m2[v] for v in s)
            )
            for s in sq.simplices
        )

    start = tuple(maps[0].vertex_map[v] for v in sq.vertices)
    component = reachable([start], keys, adjacent)
    swap = {v: (v[1], v[0]) for v in sq.vertices}
    invariant_reached = [
        k
        for k in component
        if all(
            dict(zip(sq.vertices, k))[swap[v]] == dict(zip(sq.vertices, k))[v]
            for v in sq.vertices
        )
    ]
    res = sym_contiguous(maps, 2, 0, mode="exact")
    assert res.yes == bool(invariant_reached)


def test_hollow_triangle_power_not_good(hollow_triangle):
    tower, maps = proj_maps(hollow_triangle, 2, 0)
    res = sym_contiguous(maps, 2, 0, mode="exact")
    assert res.status == "no"
    assert res.record["exhausted_component"]
    assert res.record["total_nodes"] > 0


def test_point_tuple_trivial(point_complex):
    tower, maps = proj_maps(point_complex, 2, 0)
    res = sym_contiguous(maps, 2, 0, mode="exact")
    assert res.yes
    assert res.witness.c == 0


def test_non_equivariant_rejected(edge):
    tower, maps = proj_maps(edge, 2, 0)
    sq = tower.top()
    K = tower.factor
    broken = SimplicialMap(sq.base, K.base, dict(maps[0].vertex_map))
    broken.vertex_map[("a", "b")] = "a"
    broken.vertex_map[("b", "a")] = "b"
    with pytest.raises(NotEquivariant):
        sym_contiguous([maps[0], broken], 2, 0)


def test_invariant_source_required(edge):
    tower, maps = proj_maps(edge, 2, 0)
    sq = tower.top()
    one_facet = subcomplex_from_simplices(
        sq, [frozenset([("a", "a"), ("a", "b"), ("b", "b")])]
    )
    from symtc.complexes import restrict_map

    restricted = [restrict_map(f, one_facet) for f in maps]
    with pytest.raises(NotEquivariant):
        sym_contiguous(restricted, 2, 0)


def test_plain_contiguous_square(edge):
    tower, maps = proj_maps(edge, 2, 0)
    res = plain_contiguous(maps, mode="exact")
    assert res.yes
    assert validate(res.witness)


def test_plain_contiguous_hollow(hollow_triangle):
    tower, maps = proj_maps(hollow_triangle, 2, 0)
    res = plain_contiguous(maps, mode="exact")
    assert res.status == "no"


def test_plain_contiguous_past_twenty_target_vertices():
    """No cap on the target: the ends of a 24-vertex path are joined."""
    from symtc.complexes import from_facets

    point = from_facets([0], [(0,)])
    path = from_facets(range(24), [(i, i + 1) for i in range(23)])
    maps = [SimplicialMap(point, path, {0: v}) for v in (0, 23)]
    res = plain_contiguous(maps, mode="exact")
    assert res.yes
    assert validate(res.witness)


def test_v_poset_homotopic(v_poset):
    tower, maps = rho_maps(v_poset, 2, 0)
    res = sym_comb_homotopic(maps, 2, 0, mode="auto")
    assert res.yes
    assert res.witness.m == 2
    assert validate(res.witness)


def test_v_poset_exact_agrees(v_poset):
    tower, maps = rho_maps(v_poset, 2, 0)
    assert sym_comb_homotopic(maps, 2, 0, mode="exact").yes


def test_circle_poset_not_homotopic(circle_poset):
    tower, maps = rho_maps(circle_poset, 2, 0)
    res = sym_comb_homotopic(maps, 2, 0, mode="exact")
    assert res.status == "no"
    assert res.record["exhausted_component"]


def test_circle_agrees_with_brute_force(circle_poset):
    tower, maps = rho_maps(circle_poset, 2, 0)
    Q, P = tower.top(), circle_poset
    oracle_maps = brute_monotone_maps(Q.elements, Q.le, P.elements, P.le)
    keys = [tuple(m[x] for x in Q.elements) for m in oracle_maps]

    def adjacent(k1, k2):
        return all(P.le(a, b) for a, b in zip(k1, k2)) or all(
            P.le(b, a) for a, b in zip(k1, k2)
        )

    start = tuple(maps[0].mapping[x] for x in Q.elements)
    component = reachable([start], keys, adjacent)
    invariant = [
        k
        for k in component
        if all(
            dict(zip(Q.elements, k))[(x[1], x[0])]
            == dict(zip(Q.elements, k))[x]
            for x in Q.elements
        )
    ]
    res = sym_comb_homotopic(maps, 2, 0, mode="exact")
    assert res.yes == bool(invariant)
    assert res.status == "no"


def test_plain_homotopic_v(v_poset):
    tower, maps = rho_maps(v_poset, 2, 0)
    res = plain_comb_homotopic(maps, mode="exact")
    assert res.yes
    assert validate(res.witness)


def test_plain_homotopic_circle(circle_poset):
    tower, maps = rho_maps(circle_poset, 2, 0)
    res = plain_comb_homotopic(maps, mode="exact")
    # the full product admits no plain witness either at r = 0
    assert res.status == "no"


def test_bounded_mode_sound(v_poset, circle_poset):
    # bounded mode may say yes or unknown, never no; yes must validate
    for P in (v_poset, circle_poset):
        tower, maps = rho_maps(P, 2, 0)
        res = sym_comb_homotopic(maps, 2, 0, mode="bounded")
        assert res.status in ("yes", "unknown")
        if res.yes:
            assert validate(res.witness)


def test_bounded_mode_simplicial(edge, hollow_triangle):
    for K in (edge, hollow_triangle):
        tower, maps = proj_maps(K, 2, 0)
        res = sym_contiguous(maps, 2, 0, mode="bounded",
                             target_ordered=tower.factor)
        assert res.status in ("yes", "unknown")
        if res.yes:
            assert validate(res.witness)


def test_restriction_stability(v_poset):
    """A witness on the whole product restricts to invariant open subsets."""
    tower, maps = rho_maps(v_poset, 2, 0)
    L = tower.top()
    whole = sym_comb_homotopic(maps, 2, 0, mode="auto")
    assert whole.yes
    # invariant open: everything below the orbit of (p, q)
    piece = L.down_closure({("p", "q"), ("q", "p")})
    Q = L.restrict(piece)
    restricted = [
        MonotoneMap(Q, v_poset, {x: f.mapping[x] for x in Q.elements})
        for f in maps
    ]
    res = sym_comb_homotopic(restricted, 2, 0, mode="exact")
    assert res.yes


def test_single_point_moves_connect_comparable_pairs():
    """Single-point-move completeness, non-symmetric monotone case: when
    f <= g pointwise, raising f at a maximal disagreement point, one point
    at a time, reaches g through monotone maps.  Exhaustive over all posets
    with <= 4 elements."""
    from helpers import posets_up_to_iso

    def is_monotone(P, vals):
        for i, a in enumerate(P.elements):
            for j, b in enumerate(P.elements):
                if P.le(a, b) and not P.le(P.elements[vals[i]], P.elements[vals[j]]):
                    return False
        return True

    for size, rel in posets_up_to_iso(4, connected_only=False):
        P = poset_from_relations(range(size), list(rel))
        maps = [
            tuple(P.index[f[x]] for x in P.elements)
            for f in brute_monotone_maps(P.elements, P.le, P.elements, P.le)
        ]
        idx = {e: i for i, e in enumerate(P.elements)}
        for f in maps:
            for g in maps:
                if f == g:
                    continue
                if not all(
                    P.le(P.elements[a], P.elements[b]) for a, b in zip(f, g)
                ):
                    continue
                cur = list(f)
                steps = 0
                while tuple(cur) != g:
                    dis = [
                        P.elements[i]
                        for i in range(size)
                        if cur[i] != g[i]
                    ]
                    x = P.maximal_of(dis)[0]
                    cur[idx[x]] = g[idx[x]]
                    assert is_monotone(P, cur)
                    steps += 1
                    assert steps <= size
                assert steps >= 1


def test_class_walks_are_not_recursion():
    """The quick stage's bridges, the core finder, the class search and the
    shortcut walk one class after another; a source with more classes than
    the recursion limit allows frames must not hit it."""
    import inspect
    import sys

    from symtc.complexes import from_facets
    from symtc.search import _MonotoneSpace, _SimplicialSpace

    size = 300
    path = from_facets(range(size), [(i, i + 1) for i in range(size - 1)])
    edge = from_facets("ab", [("a", "b")])
    chain = poset_from_relations(range(size), [(i, i + 1) for i in range(size - 1)])
    two = poset_from_relations([0, 1], [(0, 1)])
    vee = poset_from_relations("abc", [("c", "a"), ("c", "b")])
    # two arms of 149 points each, swapped by Sigma_2, between a fixed
    # bottom and a fixed top: 300 singleton constraint classes
    bottom, top = (0, 0), (size // 2, size // 2)
    arms = [[(0, k) for k in range(1, size // 2)],
            [(k, 0) for k in range(1, size // 2)]]
    Q = poset_from_relations(
        [bottom, top] + arms[0] + arms[1],
        [(x, y) for arm in arms
         for x, y in zip([bottom] + arm, arm + [top])],
    )
    assert len(Q.elements) == size
    # f_1 raises the top of the second arm, f_2 = f_1 . swap that of the first
    f1 = {x: int(x in (top, arms[1][-1])) for x in Q.elements}
    tuple_maps = [MonotoneMap(Q, two, f1),
                  MonotoneMap(Q, two, {x: f1[x[::-1]] for x in Q.elements})]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        simplicial = _SimplicialSpace(path, edge)
        assert simplicial.bridge((0,) * size, (1,) * size) == (0,) * size
        # an upper bound of 0 and 1 in the chain 0 < 1
        monotone = _MonotoneSpace(chain, two)
        assert monotone.bridge((0,) * size, (1,) * size) == (1,) * size
        # a and b have no upper bound in c < a, b, only the lower bound c
        monotone = _MonotoneSpace(chain, vee)
        a, b, c = (monotone.tindex[x] for x in "abc")
        assert monotone.bridge((a,) * size, (b,) * size) == (c,) * size
        res = sym_comb_homotopic(tuple_maps, 2, 0, mode="exact")
    finally:
        sys.setrecursionlimit(limit)
    # the arms are beat points and the top is the maximum, so the core is
    # one point, where the restricted start is already a goal
    assert res.yes and res.record == {
        "stage": "exact", "core": 1, "explored": 1, "total_nodes": 1,
    }
    assert validate(res.witness)


def test_bridge_walk_stops_at_the_budget():
    """A first-fit walk that would try 2**30 values gives up with None
    instead of trying one value more than its budget."""
    from symtc.complexes import from_facets
    from symtc.search import _first_fit, _SimplicialSpace

    size = 30
    path = from_facets(range(size), [(i, i + 1) for i in range(size - 1)])
    space = _SimplicialSpace(path, from_facets("ab", [("a", "b")]))
    tried = []

    def fits(ci, values):  # every class fits but the last
        tried.append(ci)
        return ci < size - 1

    assert _first_fit(space, fits, budget=100) is None
    assert len(tried) == 100


def test_quick_stage_bridges_from_a_constant(square_cycle):
    """On the orbit of the edge (a,b)-(d,c) of the square cycle's square,
    rho_1 sends the two edges to ad and bc, so no constant map is
    1-contiguous with it: "auto" answers with constant, bridge, start."""
    from symtc.complexes import restrict_map

    tower = build_tower(square_cycle, 2, 0)
    edge = [frozenset({("a", "b"), ("d", "c")}),
            frozenset({("b", "a"), ("c", "d")})]
    piece = subcomplex_from_simplices(tower.top(), edge)
    maps = [restrict_map(projection_pi(tower, j), piece) for j in (1, 2)]
    res = sym_contiguous(maps, 2, 0, mode="auto", target_ordered=tower.factor)
    assert res.record == {"stage": "quick"}
    assert res.witness.c == 2
    assert validate(res.witness)
    assert sym_contiguous(maps, 2, 0, mode="exact").yes


def test_monotone_quick_stage_bridges_from_a_constant():
    """On the down-closure of (a,d), (d,a) in the square of the fence
    a < b > c < d, rho_1 takes the values a, c and d, which no element
    bounds: "auto" answers with constant, bridge, start."""
    P = poset_from_relations("abcd", [("a", "b"), ("c", "b"), ("c", "d")])
    tower = poset_tower(P, 2, 0)
    Q = tower.top().restrict(tower.top().down_closure({("a", "d"), ("d", "a")}))
    rhos = [projection_rho(tower, j) for j in (1, 2)]
    maps = [MonotoneMap(Q, P, {x: f.mapping[x] for x in Q.elements})
            for f in rhos]
    res = sym_comb_homotopic(maps, 2, 0, mode="auto")
    assert res.record == {"stage": "quick"}
    assert validate(res.witness)
    assert sym_comb_homotopic(maps, 2, 0, mode="exact").yes


@pytest.mark.parametrize("mode", ["upper", "Exact", "quick"])
def test_deciders_refuse_modes_they_do_not_run(edge, v_poset, mode):
    """Only exact, auto and bounded are searches; any other mode is refused
    rather than run as exact."""
    _, maps = proj_maps(edge, 2, 0)
    _, pmaps = rho_maps(v_poset, 2, 0)
    calls = [
        lambda: sym_contiguous(maps, 2, 0, mode=mode),
        lambda: plain_contiguous(maps, mode=mode),
        lambda: sym_comb_homotopic(pmaps, 2, 0, mode=mode),
        lambda: plain_comb_homotopic(pmaps, mode=mode),
    ]
    for call in calls:
        with pytest.raises(UnsupportedMode, match=repr(mode)):
            call()
