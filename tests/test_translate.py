import pytest

from symtc.actions import act_name, transposition
from symtc.constructions import poset_tower, projection_rho
from symtc.errors import InvalidChain, NotMonotone
from symtc.posets import poset_from_relations
from symtc.search import sym_comb_homotopic, sym_contiguous, plain_comb_homotopic
from symtc.translate import (
    _lift_once,
    contiguity_to_homotopy,
    homotopy_to_contiguity,
    retract_section,
    section_from_homotopy,
)
from symtc.verify import validate
from symtc.witnesses import CombinatorialHomotopy


@pytest.fixture
def v_witness(v_poset):
    tower = poset_tower(v_poset, 2, 0)
    maps = [projection_rho(tower, j) for j in (1, 2)]
    res = sym_comb_homotopic(maps, 2, 0, mode="auto")
    assert res.yes
    res.witness.projection_endpoints = True
    return res.witness


def _table_of(s):
    """The homotopy table H(x, t) = s(x)(t) that a section's paths carry."""
    return {(x, t): p for x, gamma in s.paths.items() for t, p in gamma.items()}


def test_exponential_law_round_trip(v_witness):
    assert validate(v_witness)
    s = section_from_homotopy(v_witness)
    assert validate(s)
    assert _table_of(s) == v_witness.table


def test_section_endpoints(v_witness):
    s = section_from_homotopy(v_witness)
    J = s.fence()
    for x in s.source.elements:
        assert s.paths[x][J.end(1)] == x[0]
        assert s.paths[x][J.end(2)] == x[1]


def test_m0_degenerate(point_poset):
    tower = poset_tower(point_poset, 2, 0)
    maps = [projection_rho(tower, j) for j in (1, 2)]
    res = sym_comb_homotopic(maps, 2, 0, mode="auto")
    assert res.yes and res.witness.m == 0
    s = section_from_homotopy(res.witness)
    assert validate(s)
    assert _table_of(s) == res.witness.table


def test_retraction(v_witness):
    s = section_from_homotopy(v_witness)
    for _ in range(2):
        s2 = retract_section(s)
        assert s2.m == s.m + 1
        assert validate(s2)
        s = s2


def test_retraction_from_m0(point_poset):
    tower = poset_tower(point_poset, 2, 0)
    maps = [projection_rho(tower, j) for j in (1, 2)]
    s = section_from_homotopy(sym_comb_homotopic(maps, 2, 0).witness)
    s2 = retract_section(s)
    assert s2.m == 1
    assert validate(s2)


def test_homotopy_to_contiguity_v(v_witness):
    chain = homotopy_to_contiguity(v_witness)
    assert chain.symmetric
    rep = validate(chain)
    assert rep.ok, rep.failures
    # the chain interpolates the order-complex maps of the projections
    last = chain.levels[-1]
    for x in v_witness.source.elements:
        assert last[0][x] == x[0]
        assert last[1][x] == x[1]


def test_homotopy_to_contiguity_equivariance_transport(v_witness):
    chain = homotopy_to_contiguity(v_witness)
    g = transposition(2, 1, 2)
    for level in chain.levels:
        for j in (1, 2):
            for x in v_witness.source.elements:
                assert level[j - 1][act_name(g, x, 0)] == level[g(j) - 1][x]


def test_single_disagreement_one_step(chain2):
    """f0 <= f differing at one point gives a one-step interpolation."""
    P = chain2
    table = {}
    for x in P.elements:
        table[(x, (0, 0))] = 0
        table[(x, (1, 1))] = x
        table[(x, (1, 2))] = x
    H = CombinatorialHomotopy(
        n=2, m=1, depth=0, symmetric=False, source=P, target=P, table=table
    )
    # depth 0 on a non-product poset is fine for the non-symmetric case
    chain = homotopy_to_contiguity(H)
    assert len(chain.levels) == 2
    assert validate(chain)


def test_contiguity_to_homotopy_trivial_chain(point_complex):
    from symtc.constructions import build_tower, projection_pi

    tower = build_tower(point_complex, 2, 0)
    maps = [projection_pi(tower, j) for j in (1, 2)]
    res = sym_contiguous(maps, 2, 0, target_ordered=tower.factor)
    assert res.yes and res.witness.c == 0
    H = contiguity_to_homotopy(res.witness)
    assert H.m == 0
    assert validate(H)


def test_contiguity_to_homotopy_square(edge):
    from symtc.constructions import build_tower, projection_pi

    tower = build_tower(edge, 2, 0)
    maps = [projection_pi(tower, j) for j in (1, 2)]
    res = sym_contiguous(maps, 2, 0, target_ordered=tower.factor)
    assert res.yes
    H = contiguity_to_homotopy(res.witness)
    assert H.m == 2 * res.witness.c
    rep = validate(H)
    assert rep.ok, rep.failures
    assert H.symmetric


def test_round_trip_v_witness(v_witness):
    """homotopy -> contiguity -> homotopy again, both validating."""
    chain = homotopy_to_contiguity(v_witness)
    assert validate(chain)
    H2 = contiguity_to_homotopy(chain)
    rep = validate(H2)
    assert rep.ok, rep.failures
    assert H2.m == 2 * chain.c


def test_contiguity_to_homotopy_rejects_nondiagonal(edge):
    from symtc.complexes import SimplicialMap
    from symtc.constructions import totalize

    K = totalize(edge)
    ca = SimplicialMap(K.base, K.base, {"a": "a", "b": "a"})
    ident = SimplicialMap(K.base, K.base, {"a": "a", "b": "b"})
    from symtc.witnesses import ContiguityChain

    bad = ContiguityChain(
        n=2, depth=0, symmetric=False, source=K.base, target=K,
        levels=[[ca.vertex_map, ident.vertex_map]],
    )
    with pytest.raises(InvalidChain):
        contiguity_to_homotopy(bad)


def test_plain_homotopy_translates(v_poset):
    tower = poset_tower(v_poset, 2, 0)
    maps = [projection_rho(tower, j) for j in (1, 2)]
    res = plain_comb_homotopic(maps, mode="exact")
    assert res.yes
    chain = homotopy_to_contiguity(res.witness)
    rep = validate(chain)
    assert rep.ok, rep.failures


def test_lift_once_raises_on_non_monotone_step():
    """Raising a toward a target that sends a < b to 1 > 0 breaks the cover
    pair a < b."""
    P = poset_from_relations("ab", [("a", "b")])
    Q = poset_from_relations([0, 1], [(0, 1)])
    cur, target = [{"a": 0, "b": 0}], [{"a": 1, "b": 0}]
    with pytest.raises(NotMonotone, match="at 'a' <= 'b'"):
        _lift_once(P, Q, P.covers(), cur, target, upward=True)
