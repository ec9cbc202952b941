import pytest

from symtc.actions import act_name, symmetric_group
from symtc.complexes import euler_characteristic, validate_simplicial_map
from symtc.constructions import (
    barycentric_subdivide,
    build_tower,
    carrier_condition_holds,
    iota,
    ordered_power,
    poset_tower,
    projection_pi,
    projection_rho,
    tau,
    totalize,
)
from symtc.errors import BadArity, BudgetExceeded, UnorderedInput
from symtc.posets import power_poset, sd_poset

from helpers import brute_chains, is_monotone


def test_sd_edge(edge):
    sd = barycentric_subdivide(totalize(edge))
    assert len(sd.vertices) == 3
    assert len(sd.base.facets) == 2


def test_sd_triangle(triangle):
    sd = barycentric_subdivide(totalize(triangle))
    assert len(sd.vertices) == 7
    assert len(sd.base.facets) == 6


def test_sd_point(point_complex):
    sd = barycentric_subdivide(totalize(point_complex))
    assert len(sd.vertices) == 1


def test_ordered_power_square(edge):
    power = ordered_power(totalize(edge), 2)
    sq = power.result
    assert len(sq.vertices) == 4
    assert len([s for s in sq.base.simplices if len(s) == 2]) == 5
    assert len(sq.base.facets) == 2
    assert {tuple(sorted(f)) for f in sq.base.facet_names()} == {
        (("a", "a"), ("a", "b"), ("b", "b")),
        (("a", "a"), ("b", "a"), ("b", "b")),
    }
    assert euler_characteristic(sq) == 1
    for p in power.projections:
        assert validate_simplicial_map(p)


def test_ordered_power_point(point_complex):
    for n in (1, 2, 3):
        assert len(ordered_power(totalize(point_complex), n).result.vertices) == 1


def test_power_requires_order(edge):
    with pytest.raises(UnorderedInput):
        ordered_power(edge, 2)
    with pytest.raises(BadArity):
        ordered_power(totalize(edge), 0)


def test_iota_edge(edge):
    K = totalize(edge)
    f = iota(K)
    assert f.vertex_map[("a",)] == "a"
    assert f.vertex_map[("b",)] == "b"
    assert f.vertex_map[("a", "b")] == "b"
    assert validate_simplicial_map(f)


def test_iota_point(point_complex):
    f = iota(totalize(point_complex))
    assert f.vertex_map[("a",)] == "a"


def test_iota_hollow_triangle(hollow_triangle):
    f = iota(totalize(hollow_triangle))
    assert f.vertex_map[("a", "c")] == "c"
    assert f.vertex_map[("b", "c")] == "c"
    assert f.vertex_map[("a", "b")] == "b"


def test_carrier_condition(edge, triangle, hollow_triangle):
    for K in (edge, triangle, hollow_triangle):
        tower = build_tower(K, 2, 1)
        assert carrier_condition_holds(tower.maps[0], tower.levels[1])


def test_tower_size_law(edge, hollow_triangle):
    for K in (edge, hollow_triangle):
        tower = build_tower(K, 2, 2)
        for r in (0, 1):
            assert len(tower.levels[r + 1].vertices) == len(
                tower.levels[r].base.simplices
            )


def test_projection_pi_at_r0_is_projection(edge):
    tower = build_tower(edge, 2, 0)
    pi1 = projection_pi(tower, 1)
    assert pi1.vertex_map == {v: v[0] for v in tower.top().vertices}


def test_projection_pi_spec_example(edge):
    tower = build_tower(edge, 2, 1)
    pi1 = projection_pi(tower, 1)
    v = tuple(sorted([("a", "a"), ("a", "b")]))
    assert pi1(v) == "a"
    assert validate_simplicial_map(pi1)


def test_projection_compatibility(edge):
    # pi_j = p_j o iota^r as exact function equality
    tower = build_tower(edge, 2, 1)
    pi1 = projection_pi(tower, 1)
    p1 = tower.projections[0]
    for v in tower.top().vertices:
        assert pi1(v) == p1(tower.approx_to_base(v))


def test_tower_budget(hollow_triangle):
    with pytest.raises(BudgetExceeded):
        build_tower(hollow_triangle, 2, 2, budget=100)


def test_tower_budget_messages(hollow_triangle, chain2):
    with pytest.raises(BudgetExceeded,
                       match="subdivision exceeds 100 simplices"):
        build_tower(hollow_triangle, 2, 2, budget=100)
    with pytest.raises(BudgetExceeded, match="subdivision exceeds 40 elements"):
        poset_tower(chain2, 2, 2, budget=40)


def test_poset_tower_spec_example(chain2):
    tower = poset_tower(chain2, 2, 1)
    rho1 = projection_rho(tower, 1)
    chain = ((0, 0), (1, 1))
    assert rho1(chain) == 1


def test_poset_tower_r0(v_poset):
    tower = poset_tower(v_poset, 2, 0)
    rho2 = projection_rho(tower, 2)
    assert rho2(("p", "q")) == "q"


def test_sd_poset_grid_count(chain2):
    grid = power_poset(chain2, 2)
    sd = sd_poset(grid)
    oracle = brute_chains(grid.elements, grid.le)
    assert len(sd.elements) == len(oracle) == 11


def test_tau_is_monotone(v_poset):
    t = tau(v_poset)
    assert is_monotone(t)


def test_rho_equivariance(chain2):
    # rho_j(g.x) = rho_{g(j)}(x)
    tower = poset_tower(chain2, 2, 1)
    rhos = [projection_rho(tower, j) for j in (1, 2)]
    for g in symmetric_group(2):
        for x in tower.top().elements:
            gx = act_name(g, x, 1)
            for j in (1, 2):
                assert rhos[j - 1](gx) == rhos[g(j) - 1](x)


def test_iota_equivariance(edge):
    tower = build_tower(edge, 2, 1)
    f = tower.maps[0]
    for g in symmetric_group(2):
        for v in tower.levels[1].vertices:
            assert f(act_name(g, v, 1)) == act_name(g, f(v), 0)


def test_tau_carrier_condition(v_poset):
    # tau(chain) is a member of the chain, hence of its largest member
    tower = poset_tower(v_poset, 2, 1)
    t = tower.maps[0]
    for c in tower.top().elements:
        assert t(c) in c
