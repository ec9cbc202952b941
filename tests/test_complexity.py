import random

import pytest
from hypothesis import given, settings, strategies as st

import symtc.actions
import symtc.complexity
import symtc.search
from symtc.actions import act_name, act_simplex, identity, symmetric_group
from symtc.complexes import base_of, from_facets, restrict_map
from symtc.complexity import (
    DEFAULT_BUDGETS,
    INFINITY,
    _UnitLattice,
    budgets_with,
    cc_plain,
    cc_sigma,
    sc_plain,
    sc_sigma,
    stabilize_over_r,
    tc_sigma_finite,
    tc_sigma_finite_sections,
)
from symtc.constructions import build_tower, poset_tower
from symtc.errors import BudgetExceeded, DisconnectedPoset, UnsupportedMode
from symtc.io import canonical_json
from symtc.posets import (
    FinitePoset,
    MonotoneMap,
    order_complex,
    poset_from_relations,
)
from symtc.search import (
    _check_inputs,
    plain_comb_homotopic,
    plain_contiguous,
    sym_comb_homotopic,
    sym_contiguous,
)
from symtc.util import bits
from symtc.verify import validate

from helpers import brute_force_min_cover, connected_posets_up_to_iso


def _check_cover(res):
    """Cover pieces must carry validating witnesses."""
    for piece in res.cover:
        rep = validate(piece.witness)
        assert rep.ok, rep.failures


def test_point_values(point_complex, point_poset):
    for n in (2, 3):
        for r in (0, 1):
            assert sc_plain(point_complex, n, r).value == 1
            assert sc_sigma(point_complex, n, r).value == 1
            assert cc_plain(point_poset, n, r).value == 1
            assert cc_sigma(point_poset, n, r).value == 1


def test_edge_sc(edge):
    res = sc_sigma(edge, 2, 0)
    assert res.kind == "exact" and res.value == 1
    assert res.whole_space_good
    _check_cover(res)
    assert sc_plain(edge, 2, 0).value == 1


def test_hollow_triangle_sc_lower_bound(hollow_triangle):
    res = sc_sigma(hollow_triangle, 2, 0, mode="upper")
    assert res.kind == "upper"
    assert res.lower >= 2
    assert not res.whole_space_good
    assert res.stats["whole_record"]["exhausted_component"]
    assert res.upper >= res.lower
    _check_cover(res)


def test_mixed_labels_match_homogeneous_labels():
    """Int and str labels in one complex sort canonically, not with <."""
    from symtc.complexes import from_facets

    mixed = from_facets([0, 1, "a"], [(0, 1), (1, "a"), (0, "a")])
    plain = from_facets("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    for decide in (sc_sigma, sc_plain):
        got = decide(mixed, 2, 0, mode="upper")
        want = decide(plain, 2, 0, mode="upper")
        assert (got.kind, got.lower, got.upper) == (
            want.kind, want.lower, want.upper
        )
        _check_cover(got)
    res = sc_sigma(from_facets([0, "a"], [(0, "a")]), 2, 2)
    assert (res.kind, res.value) == ("exact", 1)
    _check_cover(res)


def test_hollow_triangle_sc_plain_bound(hollow_triangle):
    res = sc_plain(hollow_triangle, 2, 0, mode="upper")
    assert res.lower >= 2
    _check_cover(res)


def test_upper_growth_counts_node_overruns(hollow_triangle):
    """In upper mode a growth step whose decision overruns the node budget
    is a rejected step, counted in stats; the bound still rests on pieces
    decided "yes".  Exact mode still raises on the same budget.  At 40
    nodes the quotient test decides every step the search would overrun."""
    tight = {"nodes": 10}
    res = sc_sigma(hollow_triangle, 2, 0, mode="upper", budget=tight)
    assert (res.kind, res.upper) == ("upper", 3)
    assert res.stats["overrun_steps"] > 0
    assert len(res.cover) == res.upper
    covered = set().union(*(p.units for p in res.cover))
    assert set(res.stats["universe_units"]) <= covered
    _check_cover(res)
    for budget in ({"nodes": 40}, None):
        assert "overrun_steps" not in sc_sigma(hollow_triangle, 2, 0,
                                               mode="upper",
                                               budget=budget).stats
    with pytest.raises(BudgetExceeded):
        sc_sigma(hollow_triangle, 2, 0, mode="exact", budget=tight)


class _Asked(_UnitLattice):
    """A unit lattice that keeps every mask it is asked to decide, also
    those whose decision overruns."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def decide(self, mask):
        self.asked.append(mask)
        return super().decide(mask)


def test_overrun_pieces_are_decided_once(hollow_triangle):
    """The cover engine remembers a decision that overran the node budget,
    so upper growth from a later seed does not search the piece again."""
    budgets = budgets_with({"nodes": 1})
    problem = _Asked(build_tower(hollow_triangle, 2, 0), False, budgets)
    res = problem.cover("upper", "sc_plain")
    assert (res.kind, res.upper, res.stats["overrun_steps"]) == ("upper", 3, 60)
    assert len(problem.asked) == len(set(problem.asked))


def test_frontier_hollow_triangle_exact(hollow_triangle):
    """The exact symmetric value of the hollow triangle at r = 0 inside the
    default budgets."""
    res = sc_sigma(hollow_triangle, 2, 0, budget=DEFAULT_BUDGETS)
    assert (res.kind, res.value) == ("exact", 3)
    assert len(res.cover) == 3
    _check_cover(res)


def test_v_poset_cc(v_poset):
    res = cc_sigma(v_poset, 2, 0)
    assert res.kind == "exact" and res.value == 1
    assert res.m == 2
    _check_cover(res)
    assert cc_plain(v_poset, 2, 0).value == 1


def test_circle_cc_exact_infinite(circle_poset):
    res = cc_sigma(circle_poset, 2, 0)
    assert res.kind == "infinite"
    assert res.value == INFINITY
    assert res.lower >= 2
    assert res.whole_space_good is False


def test_circle_cc_plain_finite(circle_poset):
    res = cc_plain(circle_poset, 2, 0)
    assert res.kind == "exact"
    assert res.value == 4
    _check_cover(res)


def test_plain_le_sigma(edge, v_poset, circle_poset):
    # every symmetric cover is a cover, so plain <= sigma
    assert sc_plain(edge, 2, 0).value <= sc_sigma(edge, 2, 0).value
    assert cc_plain(v_poset, 2, 0).value <= cc_sigma(v_poset, 2, 0).value
    assert cc_plain(circle_poset, 2, 0).value <= cc_sigma(circle_poset, 2, 0).value


def test_disconnected_rejected():
    P = poset_from_relations("ab", [])
    with pytest.raises(DisconnectedPoset):
        cc_sigma(P, 2, 0)


COVERS = {"sc_sigma": sc_sigma, "sc_plain": sc_plain, "cc_sigma": cc_sigma,
          "cc_plain": cc_plain}


@pytest.mark.parametrize("name", sorted(COVERS))
def test_unsupported_cover_mode(name, edge, v_poset):
    space = v_poset if name.startswith("cc") else edge
    with pytest.raises(UnsupportedMode, match="'bogus'"):
        COVERS[name](space, 2, 0, mode="bogus")
    with pytest.raises(UnsupportedMode, match="'bogus'"):
        stabilize_over_r(name.replace("_", "-"), space, max_r=1, mode="bogus")


def test_mode_is_checked_before_connectivity():
    P = poset_from_relations("ab", [])
    with pytest.raises(UnsupportedMode, match="'bogus'"):
        cc_sigma(P, 2, 0, mode="bogus")
    with pytest.raises(DisconnectedPoset):
        cc_sigma(P, 2, 0, mode="exact")


def test_good_piece_decides_a_dominated_piece_again(hollow_triangle):
    """A proper sub-piece of a good piece is settled "yes" by dominance,
    with no witness; ``good_piece`` decides it again, counts the decision
    and remembers a witness that validates."""
    problem = _UnitLattice(build_tower(hollow_triangle, 2, 0), True,
                           budgets_with())
    u = bits(problem.universe)[0]
    G = problem.down_closure(1 << u)
    assert problem.settle(G).witness is not None
    S = problem.down_closure(1 << next(v for v in bits(G) if v != u))
    assert S & G == S != G
    tested = problem.stats["pieces_tested"]
    res = problem.settle(S)
    assert res.yes and res.witness is None
    assert res.record == {"by_dominance": True}
    assert problem.stats["pieces_tested"] == tested
    piece = problem.good_piece(S)
    assert problem.stats["pieces_tested"] == tested + 1
    assert piece.units == tuple(bits(S))
    assert problem.memo[S].witness is piece.witness is not None
    rep = validate(piece.witness)
    assert rep.ok, rep.failures


def test_stabilize_edge(edge):
    out = stabilize_over_r("sc-sigma", edge, n=2, max_r=1)
    values = [row.value for row in out["rows"]]
    assert values == [1, 1]
    assert out["min"] == 1
    assert out["min"] <= min(values)


def test_stabilize_point(point_poset):
    out = stabilize_over_r("cc-sigma", point_poset, n=2, max_r=1)
    assert [row.value for row in out["rows"]] == [1, 1]


def test_r_monotonicity(edge, v_poset, chain2):
    for P, fn in ((v_poset, cc_sigma), (chain2, cc_sigma)):
        r0 = fn(P, 2, 0)
        r1 = fn(P, 2, 1)
        assert r1.value <= r0.value
    s0 = sc_sigma(edge, 2, 0)
    s1 = sc_sigma(edge, 2, 1)
    assert s1.value <= s0.value


def test_bridge_inequality(v_poset, chain2):
    # cc_sigma(P, 2, r) >= sc_sigma(K(P), 2, r)
    for P in (chain2, v_poset):
        K = order_complex(P).base
        for r in (0, 1):
            cc = cc_sigma(P, 2, r)
            sc = sc_sigma(K, 2, r)
            assert cc.best() >= sc.lower
            if cc.kind == "exact" and sc.kind == "exact":
                assert cc.value >= sc.value


def test_tc_routes_agree_on_fixtures(point_poset, chain2, v_poset, circle_poset):
    for P in (point_poset, chain2, v_poset, circle_poset):
        a = tc_sigma_finite(P, 2)
        b = tc_sigma_finite_sections(P, 2)
        assert a.value == b.value


def test_tc_routes_exhaustive_small():
    """Both routes agree on every connected poset with <= 3 elements."""
    for size, rel in connected_posets_up_to_iso(3):
        P = poset_from_relations(range(size), list(rel))
        a = tc_sigma_finite(P, 2)
        b = tc_sigma_finite_sections(P, 2)
        assert a.value == b.value, (size, sorted(rel))


def test_exact_cover_minimality_confirmed(circle_poset, v_poset):
    """Independent brute-force cover enumeration confirms exact minimality."""
    for res in (cc_plain(circle_poset, 2, 0), cc_sigma(v_poset, 2, 0)):
        assert res.kind == "exact"
        universe = frozenset(res.stats["universe_units"])
        if res.candidates:
            sets = [frozenset(c) & universe for c in res.candidates]
        else:
            # value 1 through the whole space: the single piece is everything
            assert res.value == 1
            sets = [universe]
        if len(sets) <= 12:
            assert brute_force_min_cover(universe, sets) == res.value


def test_n3_nontrivial(edge, v_poset, chain2):
    res = sc_sigma(edge, 3, 0)
    assert res.kind == "exact" and res.value == 1
    res = cc_sigma(v_poset, 3, 0)
    assert res.kind == "exact" and res.value == 1 and res.m == 2
    _check_cover(res)
    assert cc_sigma(chain2, 3, 1).value == 1


def test_result_doc_round_trip(v_poset):
    res = cc_sigma(v_poset, 2, 0)
    doc = res.to_doc()
    assert doc["value"] == 1
    assert doc["kind"] == "exact"
    assert doc["cover"][0]["witness"]["type"] == "combinatorial_homotopy"


def test_deterministic_results(v_poset, hollow_triangle):
    from symtc.io import canonical_json

    a = cc_sigma(v_poset, 2, 0).to_doc()
    b = cc_sigma(v_poset, 2, 0).to_doc()
    assert canonical_json(a) == canonical_json(b)
    c = sc_sigma(hollow_triangle, 2, 0, mode="upper").to_doc()
    d = sc_sigma(hollow_triangle, 2, 0, mode="upper").to_doc()
    assert canonical_json(c) == canonical_json(d)


# ---------------------------------------------------------------------------
# the unit lattice against its pairwise definition
# ---------------------------------------------------------------------------


def _lattice(instance, n, symmetric):
    if hasattr(instance, "elements"):
        tower = poset_tower(instance, n, 0)
        up = tower.top().up

        def le(x, y):  # element indices
            return bool(up[x] >> y & 1)
    else:
        tower = build_tower(instance, n, 0)

        def le(x, y):  # sorted vertex-rank tuples
            return set(x) <= set(y)
    lat = _UnitLattice(tower, symmetric, budgets_with())
    units = lat.units
    # unit u lies below unit w when some member of u lies below one of w;
    # members are positions in the top level
    below = [
        {u for u in range(len(units))
         if any(le(x, y) for x in units[u] for y in units[w])}
        for w in range(len(units))
    ]
    return lat, below


_UNIT_CASES = [
    ("hollow_triangle", 2, 0),
    ("hollow_triangle", 2, 1),
    ("edge", 3, 1),
    ("circle_poset", 2, 0),
    ("circle_poset", 2, 1),
    ("chain2", 2, 2),
]


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("fixture,n,r", _UNIT_CASES)
def test_units_are_top_level_positions(fixture, n, r, symmetric, request):
    """Units are positions in the top level: mapped back to names they are
    the orbits of ``act_simplex`` or ``act_name``, in canonical order; the
    universe is the orbits of facets or of maximal elements; the whole
    space is the top level itself."""
    instance = request.getfixturevalue(fixture)
    poset = hasattr(instance, "elements")
    tower = (poset_tower if poset else build_tower)(instance, n, r)
    lat = _UnitLattice(tower, symmetric, budgets_with())
    level = tower.top()
    group = symmetric_group(n) if symmetric else [identity(n)]
    if poset:
        space, members, tops = level, level.elements, level.maximal_of()

        def act(g, x):
            return act_name(g, x, r)

        def named(x):
            return level.elements[x]
    else:
        space = base_of(level)
        members, tops = space.simplices, space.facets

        def act(g, s):
            return act_simplex(g, s, r)

        def named(t):
            return frozenset([space.vertices[i] for i in t])
    orbits = [frozenset(map(named, orb)) for orb in lat.units]
    assert len(set(orbits)) == len(orbits)
    assert set(orbits) == {frozenset([act(g, x) for g in group])
                           for x in members}
    assert all(list(orb) == sorted(orb) for orb in lat.units)
    assert [orb[0] for orb in lat.units] == sorted(
        orb[0] for orb in lat.units)
    tops = set(tops)
    assert [u for u in range(len(orbits)) if lat.universe >> u & 1] == [
        u for u, orb in enumerate(orbits) if orb & tops]
    assert lat.piece(lat.all) is space


def _bits_reference(m):
    return [i for i in range(m.bit_length()) if m >> i & 1]


@pytest.mark.parametrize("m", [
    0, 1, 2, 5, (1 << 64) - 1, 1 << 63,
    (1 << 10_001) - 1,
    (1 << 12_000) | (1 << 6_000) | 1,
    int.from_bytes(bytes(range(256)) * 6, "little"),
], ids=lambda m: f"{m.bit_length()}bits-{m.bit_count()}set")
def test_bits_is_the_set_bits_ascending(m):
    assert bits(m) == _bits_reference(m)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(0, 1 << 70), st.integers(0, 1 << 11_000)))
def test_bits_matches_the_reference_on_random_masks(m):
    assert bits(m) == _bits_reference(m)


def _fixpoint_closure(below, S):
    out = set(S)
    while True:
        more = set().union(*(below[w] for w in out)) - out
        if not more:
            return out
        out |= more


def _mask(units):
    return sum(1 << u for u in units)


_WALK_CASES = {
    "cc_plain(circle)": (cc_plain, "circle_poset", False),
    "cc_sigma(V)": (cc_sigma, "v_poset", True),
    "sc_sigma(edge)": (sc_sigma, "edge", True),
    "sc_plain(edge)": (sc_plain, "edge", False),
    "cc_sigma(circle)": (cc_sigma, "circle_poset", True),
    "sc_sigma(hollow_triangle)": (sc_sigma, "hollow_triangle", True),
}
# the hollow triangle's 30 units are too many for every down-set
_WALK_RUNS = [(case, mode) for case in sorted(_WALK_CASES)
              for mode in ("exact", "upper")
              if (case, mode) != ("sc_sigma(hollow_triangle)", "upper")]


def _maximal(masks):
    return [S for S in masks if not any(S != T and S & T == S for T in masks)]


@pytest.mark.parametrize("case,mode", _WALK_RUNS)
def test_lattice_walk_matches_brute_force(case, mode, request):
    """The walk against brute force, each candidate decided on its own:
    exact mode keeps the down-closures of the maximal sets F of universe
    units with good down-closure, upper mode's pieces lie among the good
    down-sets of units."""
    fn, fixture, symmetric = _WALK_CASES[case]
    instance = request.getfixturevalue(fixture)
    lat, below = _lattice(instance, 2, symmetric)
    k = len(lat.units)
    universe = frozenset(u for u in range(k) if lat.universe >> u & 1)
    if mode == "exact":
        univ = sorted(universe)
        subsets = (_mask(univ[i] for i in _bits_reference(c))
                   for c in range(1, 1 << len(univ)))
        down = {F: _mask(_fixpoint_closure(below, _bits_reference(F)))
                for F in subsets}
        goods = [F for F, S in down.items() if lat.decide(S).yes]
        maxima = sorted(tuple(_bits_reference(down[F]))
                        for F in _maximal(goods))
    else:
        assert k <= 16
        downsets = [
            S for S in range(1, 1 << k)
            if all(below[u] <= {v for v in range(k) if S >> v & 1}
                   for u in range(k) if S >> u & 1)
        ]
        goods = [S for S in downsets if lat.decide(S).yes]
        maxima = sorted(tuple(_bits_reference(S)) for S in _maximal(goods))
    sets = [frozenset(M) & universe for M in maxima]
    value = brute_force_min_cover(universe, sets)
    res = fn(instance, 2, 0, mode=mode)
    if res.whole_space_good:
        assert maxima == [tuple(range(k))] and res.value == 1
    elif res.kind == "infinite":
        assert value is None
    elif mode == "exact":
        assert sorted(res.candidates) == maxima
        assert res.value == value
    else:
        assert res.upper >= value
        for piece in res.cover:
            assert _mask(piece.units) in goods
            # growth by every unit leaves only maximal good pieces
            assert not lat.poset or piece.units in maxima


_CLOSURE_COMPLEXES = {
    "hollow_triangle": from_facets(
        "abc", [("a", "b"), ("b", "c"), ("a", "c")]),
    "square_cycle": from_facets(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]),
}
_CLOSURE_POSETS = [
    poset_from_relations(range(size), list(rel))
    for size, rel in connected_posets_up_to_iso(4)
]
_LATTICES = {}


def _cached_lattice(key, instance, n):
    if key not in _LATTICES:
        _LATTICES[key] = _lattice(instance, n, True)
    return _LATTICES[key]


@st.composite
def closure_cases(draw):
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(_CLOSURE_COMPLEXES)))
        lat, below = _cached_lattice(name, _CLOSURE_COMPLEXES[name], 2)
    else:
        i = draw(st.integers(0, len(_CLOSURE_POSETS) - 1))
        n = draw(st.sampled_from([2, 3]))
        lat, below = _cached_lattice((i, n), _CLOSURE_POSETS[i], n)
    S = draw(st.sets(st.integers(0, len(lat.units) - 1), min_size=1))
    return lat, below, S


@settings(max_examples=80, deadline=None)
@given(closure_cases())
def test_one_pass_closure_matches_fixpoint(case):
    """The unit order is transitive, so one pass of down masks closes."""
    lat, below, S = case
    closed = _fixpoint_closure(below, S)
    assert lat.down_closure(_mask(S)) == _mask(closed)


# ---------------------------------------------------------------------------
# pieces decided on the top level's restricted space
# ---------------------------------------------------------------------------


_DIFFERENTIAL_BUDGETS = {"nodes": 2_000}


def _public_maps(lat, piece):
    """rho_1 .. rho_n (pi_1 .. pi_n) restricted to a piece by names."""
    if lat.poset:
        return [MonotoneMap(piece, f.target,
                            {x: f.mapping[x] for x in piece.elements})
                for f in lat.maps]
    return [restrict_map(f, piece) for f in lat.maps]


def _public_decision(lat, mask):
    """The public decider on the piece's restricted maps, as the unit
    lattice called it on every piece before it restricted one top-level
    space; None when it overruns the node budget."""
    maps = _public_maps(lat, lat.piece(mask))
    if lat.poset:
        sym, plain, extra = sym_comb_homotopic, plain_comb_homotopic, {}
    else:
        sym, plain = sym_contiguous, plain_contiguous
        extra = {"target_ordered": lat.tower.factor}
    args = (maps, lat.n) if lat.symmetric else (maps,)
    try:
        return (sym if lat.symmetric else plain)(
            *args, depth=lat.depth, mode="auto",
            budget=lat.budgets["nodes"], **extra)
    except BudgetExceeded:
        return None


def _cover_decisions(instance, r, symmetric, mode):
    """The lattice and every piece its cover run decides, refuted ones
    included, with its first decision: (mask, (status, witness, record))
    or (mask, None) for an overrun.  The run is kept up to the budget it
    overruns."""
    make = poset_tower if hasattr(instance, "elements") else build_tower
    lat = _UnitLattice(make(instance, 2, r), symmetric,
                       budgets_with(_DIFFERENTIAL_BUDGETS))
    decided, decide = {}, lat.decide

    def recording(mask):
        decided.setdefault(mask, None)
        res = decide(mask)
        decided[mask] = decided[mask] or (res.status, res.witness,
                                          dict(res.record))
        return res

    lat.decide = recording
    try:
        lat.cover(mode, "test")
    except BudgetExceeded:
        pass
    del lat.decide
    return lat, list(decided.items())


_DIFFERENTIAL_CASES = [
    (fixture, 0, symmetric, mode)
    for fixture in ("hollow_triangle", "square_cycle", "circle_poset")
    for symmetric in (True, False) for mode in ("exact", "upper")
] + [("circle_poset", 1, True, "upper")]


@pytest.mark.parametrize("fixture,r,symmetric,mode", _DIFFERENTIAL_CASES)
def test_restricted_space_decides_as_the_public_decider(
        fixture, r, symmetric, mode, request):
    """Every piece the cover engine decides gets, on the top level's space
    restricted to it, the status, record and witness the public decider
    gives on the piece's restricted maps; a refuted piece is never
    searched, and the whole space is refuted only where the search
    overruns.  Every yes becomes a certificate that validates.  (The
    public decider also marks a disconnected symmetric source, a key the
    engine's proper pieces, whose records are never written, leave out.)"""
    lat, decided = _cover_decisions(request.getfixturevalue(fixture), r,
                                    symmetric, mode)
    searched = yes = 0
    for mask, got in decided:
        if mask != lat.all and lat.refute(mask):
            continue
        searched += 1
        expected = _public_decision(lat, mask)
        if got is None:
            assert expected is None
            continue
        status, witness, record = got
        if expected is None:
            assert mask == lat.all and record == lat.refute(mask)
            continue
        want = dict(expected.record)
        want.pop("disconnected_source", None)
        assert (status, record) == (expected.status, want)
        if status == "yes":
            yes += 1
            cert = lat.space.certificate(
                witness, n=lat.n, depth=lat.depth, symmetric=symmetric,
                source=lat.piece(mask), target=lat.tower.factor)
            assert canonical_json(cert.to_doc()) == canonical_json(
                expected.witness.to_doc())
            rep = validate(lat.good_piece(mask).witness)
            assert rep.ok, rep.failures
    assert searched and (yes or fixture == "circle_poset")


def _piece_masks(lat, count, seed=7):
    """Seeded random down-closures of sets of universe units, proper."""
    rng = random.Random(seed)
    universe = bits(lat.universe)
    out = []
    while len(out) < count:
        mask = lat.down_closure(
            sum(1 << u for u in universe if rng.random() < 0.5))
        if 0 < mask < lat.all:
            out.append(mask)
    return out


@pytest.mark.parametrize("fixture,r,symmetric", [
    ("hollow_triangle", 0, True), ("hollow_triangle", 1, True),
    ("square_cycle", 0, False), ("circle_poset", 0, False),
    ("circle_poset", 1, True), ("circle_poset", 1, False),
])
def test_restriction_is_the_space_of_the_piece(fixture, r, symmetric,
                                               request):
    """``restrict(mask)`` equals the space the deciders build from the
    piece's restricted maps: names, classes, goal, swaps, starts, the
    source's facets or order masks, and the target's tables."""
    instance = request.getfixturevalue(fixture)
    poset = hasattr(instance, "elements")
    lat = _UnitLattice((poset_tower if poset else build_tower)(instance, 2, r),
                       symmetric, budgets_with())
    for mask in _piece_masks(lat, 8):
        got = lat.restrict(mask)
        want = _check_inputs(_public_maps(lat, lat.piece(mask)), lat.n,
                             lat.depth, "auto", symmetric, not poset)
        assert type(got) is type(want)
        for key in ("names", "tnames", "classes", "goal", "swaps", "starts",
                    "size", "nvalues"):
            assert getattr(got, key) == getattr(want, key), key
        if poset:
            assert (got.below, got.above) == (want.below, want.above)
            assert (got.up, got.down) == (want.up, want.down)
        else:
            assert list(got.facets) == list(want.facets)
            assert got.ext == want.ext


@pytest.mark.parametrize("fixture,symmetric,pieces", [
    ("hollow_triangle", True, 3), ("circle_poset", False, 4),
])
def test_one_space_per_lattice(monkeypatch, fixture, symmetric, pieces,
                               request):
    """Deciding the pieces of an exact cover acts on the top level's names
    at most once, whatever the number of decisions, and builds a piece by
    names only for each cover piece."""
    instance = request.getfixturevalue(fixture)
    poset = hasattr(instance, "elements")
    lat = _UnitLattice((poset_tower if poset else build_tower)(instance, 2, 0),
                       symmetric, budgets_with())
    calls = {"positions": 0, "piece": 0}
    positions = symtc.actions.positions

    def counted_positions(*args):
        calls["positions"] += 1
        return positions(*args)

    def counted(fn):
        def wrapped(*args):
            calls["piece"] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(symtc.actions, "positions", counted_positions)
    monkeypatch.setattr(symtc.search, "positions", counted_positions)
    monkeypatch.setattr(symtc.complexity, "subcomplex_from_simplices",
                        counted(symtc.complexity.subcomplex_from_simplices))
    monkeypatch.setattr(FinitePoset, "restrict", counted(FinitePoset.restrict))
    res = lat.cover("exact", "test")
    assert res.value == len(res.cover) == pieces
    assert lat.stats["pieces_tested"] > pieces
    assert calls == {"positions": int(symmetric), "piece": pieces}
