import hashlib
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symtc import sections
from symtc.complexity import tc_sigma_finite_sections
from symtc.errors import BudgetExceeded
from symtc.io import canonical_json
from symtc.posets import poset_from_relations, power_poset
from symtc.sections import cc_by_sections, invariant_open_pieces, section_search
from symtc.verify import validate

from helpers import brute_monotone_maps, connected_posets_up_to_iso, le_table


def test_invariant_open_pieces_are_opens(v_poset):
    L = power_poset(v_poset, 2)
    pieces = invariant_open_pieces(L, 2, 0)
    swap = {x: (x[1], x[0]) for x in L.elements}
    for piece in pieces:
        assert L.is_open(piece)
        assert all(swap[x] in piece for x in piece)
    # the whole space is among them
    assert frozenset(L.elements) in set(pieces)


def _brute_invariant_opens(L, n):
    """Every nonempty Sigma_n-invariant open of L: each union of orbits
    (coordinate permutations) that is down-closed, by subset enumeration."""
    orbits = sorted({
        frozenset(tuple(x[i] for i in p) for p in permutations(range(n)))
        for x in L.elements
    }, key=sorted)
    out = []
    for bits in range(1, 1 << len(orbits)):
        S = frozenset().union(*(o for k, o in enumerate(orbits)
                                if bits >> k & 1))
        if all(L.le(y, x) <= (y in S) for x in S for y in L.elements):
            out.append(S)
    return sorted(out, key=lambda s: (len(s), sorted(L.index[x] for x in s)))


@pytest.mark.parametrize("n, max_size", [(2, 3), (3, 3)])
def test_invariant_open_pieces_are_all_opens(n, max_size):
    shapes = connected_posets_up_to_iso(max_size) + [CIRCLE4] * (n == 2)
    for size, rel in shapes:
        L = power_poset(poset_from_relations(range(size), sorted(rel)), n)
        assert invariant_open_pieces(L, n, 0) == _brute_invariant_opens(L, n)


def test_section_search_v(v_poset):
    L = power_poset(v_poset, 2)
    out = section_search(L, v_poset, 2, 0)
    assert out.yes
    assert out.witness.m <= 2
    rep = validate(out.witness)
    assert rep.ok, rep.failures


def test_section_search_point(point_poset):
    L = power_poset(point_poset, 2)
    out = section_search(L, point_poset, 2, 0)
    assert out.yes and out.witness.m == 0


def test_section_search_circle_whole_no(circle_poset):
    L = power_poset(circle_poset, 2)
    out = section_search(L, circle_poset, 2, 0)
    assert out.status == "no"
    assert "stabilized_at" in out.record


def test_section_search_chain_bottom(chain3):
    # a minimum element gives an m = 1 witness through the constant map
    L = power_poset(chain3, 2)
    out = section_search(L, chain3, 2, 0)
    assert out.yes
    assert out.witness.m <= 2
    assert validate(out.witness)


def test_cc_by_sections_v(v_poset):
    out = cc_by_sections(v_poset, 2)
    assert out["k"] == 1
    assert out["whole_space_good"]


def test_cc_by_sections_circle(circle_poset):
    out = cc_by_sections(circle_poset, 2)
    assert out["k"] is None  # the orbit of a maximal element is uncoverable
    assert out["whole_space_good"] is False


def test_sweep_agrees_with_bfs_route(v_poset, circle_poset, chain2):
    """The sweep and the homotopy-route search agree piecewise."""
    from symtc.constructions import poset_tower, projection_rho
    from symtc.search import sym_comb_homotopic
    from symtc.posets import MonotoneMap

    for P in (v_poset, circle_poset, chain2):
        L = power_poset(P, 2)
        pieces = invariant_open_pieces(L, 2, 0)
        tower = poset_tower(P, 2, 0)
        rhos = [projection_rho(tower, j) for j in (1, 2)]
        for piece in pieces:
            Q = L.restrict(piece)
            restricted = [
                MonotoneMap(Q, P, {x: f.mapping[x] for x in Q.elements})
                for f in rhos
            ]
            route1 = sym_comb_homotopic(restricted, 2, 0, mode="exact")
            route2 = section_search(Q, P, 2, 0)
            assert route1.yes == route2.yes


# Every section_search outcome on the invariant opens of the 4-point circle,
# keyed by the piece's maximal elements: ("yes", m) answers come from the
# small-m stage, ("no", stabilized_at, reached) from the sweep, where reached
# counts the maps in the last A_m or B_m (81 of the 32,148 constraint-
# invariant maps on the largest piece).
CIRCLE_OUTCOMES = {
    "ab<cd": [
        ("aa", "yes", 0),
        ("bb", "yes", 0),
        ("aa bb", "yes", 0),
        ("ab ba", "yes", 2),
        ("aa ab ba", "yes", 2),
        ("ab ba bb", "yes", 2),
        ("aa ab ba bb", "yes", 2),
        ("ac ca", "yes", 2),
        ("ad da", "yes", 2),
        ("bc cb", "yes", 2),
        ("bd db", "yes", 2),
        ("ac bb ca", "yes", 2),
        ("ad bb da", "yes", 2),
        ("aa bc cb", "yes", 2),
        ("aa bd db", "yes", 2),
        ("ac ad ca da", "no", 5, 13),
        ("bc bd cb db", "no", 5, 13),
        ("ac ad bb ca da", "no", 5, 52),
        ("ac bc ca cb", "yes", 2),
        ("ac bd ca db", "no", 9, 192),
        ("ad bc cb da", "no", 9, 192),
        ("ad bd da db", "yes", 2),
        ("aa bc bd cb db", "no", 5, 52),
        ("cc", "yes", 2),
        ("dd", "yes", 2),
        ("ac ad bc ca cb da", "no", 7, 83),
        ("ac ad bd ca da db", "no", 7, 83),
        ("ac bc bd ca cb db", "no", 7, 83),
        ("ad bc bd cb da db", "no", 7, 83),
        ("ad cc da", "no", 5, 40),
        ("ac ca dd", "no", 5, 40),
        ("bd cc db", "no", 5, 40),
        ("bc cb dd", "no", 5, 40),
        ("ac ad bc bd ca cb da db", "no", 4, 81),
        ("ad bd cc da db", "no", 4, 36),
        ("ac bc ca cb dd", "no", 4, 36),
        ("cc dd", "no", 4, 16),
        ("cd dc", "no", 4, 16),
        ("cc cd dc", "no", 4, 4),
        ("cd dc dd", "no", 4, 4),
        ("cc cd dc dd", "no", 2, 1),
    ],
    "ac<bd": [
        ("aa", "yes", 0),
        ("cc", "yes", 0),
        ("aa cc", "yes", 0),
        ("ac ca", "yes", 2),
        ("aa ac ca", "yes", 2),
        ("ac ca cc", "yes", 2),
        ("aa ac ca cc", "yes", 2),
        ("ab ba", "yes", 2),
        ("ad da", "yes", 2),
        ("bc cb", "yes", 2),
        ("cd dc", "yes", 2),
        ("ab ba cc", "yes", 2),
        ("ad cc da", "yes", 2),
        ("aa bc cb", "yes", 2),
        ("aa cd dc", "yes", 2),
        ("ab ad ba da", "no", 5, 13),
        ("bc cb cd dc", "no", 5, 13),
        ("ab ad ba cc da", "no", 5, 52),
        ("ab ba bc cb", "yes", 2),
        ("ab ba cd dc", "no", 9, 192),
        ("ad bc cb da", "no", 9, 192),
        ("ad cd da dc", "yes", 2),
        ("aa bc cb cd dc", "no", 5, 52),
        ("bb", "yes", 2),
        ("dd", "yes", 2),
        ("ab ad ba bc cb da", "no", 7, 83),
        ("ab ad ba cd da dc", "no", 7, 83),
        ("ab ba bc cb cd dc", "no", 7, 83),
        ("ad bc cb cd da dc", "no", 7, 83),
        ("ad bb da", "no", 5, 40),
        ("ab ba dd", "no", 5, 40),
        ("bb cd dc", "no", 5, 40),
        ("bc cb dd", "no", 5, 40),
        ("ab ad ba bc cb cd da dc", "no", 4, 81),
        ("ad bb cd da dc", "no", 4, 36),
        ("ab ba bc cb dd", "no", 4, 36),
        ("bb dd", "no", 4, 16),
        ("bd db", "no", 4, 16),
        ("bb bd db", "no", 4, 4),
        ("bd db dd", "no", 4, 4),
        ("bb bd db dd", "no", 2, 1),
    ],
}

CIRCLE_LABELLINGS = {
    "ab<cd": [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    "ac<bd": [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")],
}


@pytest.mark.parametrize("labelling", sorted(CIRCLE_LABELLINGS))
def test_cc_by_sections_circle_pieces_tested(labelling):
    """Of the 41 pieces, 17 lie above one of the bad pieces decided before
    them and are not decided."""
    P = poset_from_relations("abcd", CIRCLE_LABELLINGS[labelling])
    assert cc_by_sections(P, 2)["pieces_tested"] == 24


@pytest.mark.parametrize("labelling", sorted(CIRCLE_LABELLINGS))
def test_section_search_circle_outcomes_pinned(labelling):
    P = poset_from_relations("abcd", CIRCLE_LABELLINGS[labelling])
    L = power_poset(P, 2)
    got = []
    for piece in invariant_open_pieces(L, 2, 0):
        out = section_search(L.restrict(piece), P, 2, 0)
        key = " ".join(a + b for a, b in L.maximal_of(piece))
        if out.yes:
            m = out.witness.m
            assert out.record == {"m": m, "stage": "small-m"}
            got.append((key, "yes", m))
        else:
            assert out.witness is None
            rec = out.record
            assert set(rec) == {"stabilized_at", "reached"}
            got.append((key, "no", rec["stabilized_at"], rec["reached"]))
    assert got == CIRCLE_OUTCOMES[labelling]


def test_section_search_sweep_yes_pinned():
    """A piece of the 5-point fence 3 > 1 < 2 > 0 < 4 whose section needs a
    fence of length 3: the sweep finds it and the layers are reconstructed
    greedily, lowest map first."""
    P = poset_from_relations(range(5), [(0, 2), (0, 4), (1, 2), (1, 3)])
    L = power_poset(P, 2)
    Q = L.restrict([(0, 1), (0, 3), (1, 0), (1, 4), (3, 0), (4, 1)])
    out = section_search(Q, P, 2, 0)
    assert out.record == {"m": 3, "stage": "sweep", "reached": 225}
    w = out.witness
    layers = [
        tuple(w.paths[x][(l, 1) if l else (0, 0)] for x in Q.elements)
        for l in range(w.m + 1)
    ]
    assert layers == [
        (0, 0, 0, 0, 0, 0),
        (0, 0, 2, 2, 2, 0),
        (0, 0, 1, 1, 1, 0),
        (0, 0, 1, 1, 3, 4),
    ]
    rep = validate(w)
    assert rep.ok, rep.failures


def _oracle_sweep(Q, P):
    """The sweep by brute force at n = 2, depth 0, where the constraint
    group is trivial, so every monotone map Q -> P is in the sweep's space.

    Maps are value-index rows; A_m and B_m are boolean vectors over them,
    each the union of explicit pointwise cones of the other layer one step
    back.  Returns
    ("yes", m, reached) at the first m whose A_m holds a symmetric map, or
    ("no", stabilized_at, reached) once A_m, B_m equal A_{m-2}, B_{m-2}.
    """
    lq, lp = le_table(Q), le_table(P)
    leq = np.array(lp, dtype=bool).reshape(len(P.elements), -1)
    nq = len(Q.elements)
    maps = brute_monotone_maps(
        range(nq), lambda i, j: lq[i][j],
        range(len(P.elements)), lambda a, b: lp[a][b],
    )
    rows = np.array([[f[i] for i in range(nq)] for f in maps]).reshape(-1, nq)
    swap = [Q.index[(x[1], x[0])] for x in Q.elements]
    symmetric = (rows == rows[:, swap]).all(axis=1)
    start = [P.index[x[0]] for x in Q.elements]
    projection = (rows == start).all(axis=1)

    def cones(layer, below):
        out = np.zeros(len(rows), dtype=bool)
        for g in np.flatnonzero(layer):
            rel = leq[rows, rows[g]] if below else leq[rows[g], rows]
            out |= rel.all(axis=1)
        return out

    a_layers, b_layers = [projection], [projection]
    m = 0
    while True:
        a, b = a_layers[m], b_layers[m]
        reached = int((a | b).sum())
        if (a & symmetric).any():
            return "yes", m, reached
        if m >= 2 and (a == a_layers[m - 2]).all() and (
            b == b_layers[m - 2]
        ).all():
            return "no", m, reached
        a_layers.append(cones(b, below=True))
        b_layers.append(cones(a, below=False))
        m += 1


CIRCLE4 = (4, [(0, 2), (0, 3), (1, 2), (1, 3)])


@lru_cache(maxsize=None)
def _connected_shapes():
    return [(size, sorted(rel)) for size, rel in connected_posets_up_to_iso(4)]


@st.composite
def _square_pieces(draw):
    """An invariant open of P x P, P a connected poset on at most 4 points,
    relabelled so its labels need not follow its order.  Half the draws
    take the 4-point circle, the only such P with pieces the small-m stage
    cannot answer."""
    size, rel = draw(st.one_of(
        st.just(CIRCLE4), st.sampled_from(_connected_shapes())
    ))
    labels = draw(st.permutations(range(size)))
    P = poset_from_relations(
        range(size), [(labels[a], labels[b]) for a, b in rel]
    )
    L = power_poset(P, 2)
    pieces = invariant_open_pieces(L, 2, 0)
    return P, L.restrict(draw(st.sampled_from(pieces)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_square_pieces())
def test_sweep_against_brute_force_layers(case):
    """Status, m, stabilized_at and reached agree with layers built from
    every monotone map and explicit cones; every yes validates.  On pieces
    of at most 4-point posets the small-m stage answers exactly the m <= 2
    cases: each is answered by m <= 1 or a constant map at m = 2 (all 483
    yes pieces of the 505 at n = 2)."""
    P, Q = case
    status, m, reached = _oracle_sweep(Q, P)
    out = section_search(Q, P, 2, 0)
    assert out.status == status
    if status == "no":
        assert out.record == {"stabilized_at": m, "reached": reached}
        return
    assert out.witness.m == m
    if m <= 2:
        assert out.record == {"m": m, "stage": "small-m"}
    else:
        assert out.record == {"m": m, "stage": "sweep", "reached": reached}
    rep = validate(out.witness)
    assert rep.ok, rep.failures


FENCE5 = [(0, 2), (0, 4), (1, 2), (1, 3)]  # 3 > 1 < 2 > 0 < 4


def test_sweep_answers_m2_past_the_constants():
    """A piece of the 5-point fence with a section of length 2 through no
    constant map: the small-m stage tries only constants at m = 2, so the
    sweep finds it, with the brute-force layers' m and reached."""
    P = poset_from_relations(range(5), FENCE5)
    Q = power_poset(P, 2).restrict([
        (0, 0), (0, 1), (0, 3), (0, 4), (1, 0), (3, 0), (4, 0),
    ])
    out = section_search(Q, P, 2, 0)
    assert out.record == {"m": 2, "stage": "sweep", "reached": 317}
    assert _oracle_sweep(Q, P) == ("yes", 2, 317)
    rep = validate(out.witness)
    assert rep.ok, rep.failures


def test_sweep_answers_past_the_whole_space_budget():
    """A piece of the 5-point fence with more than 50,000 constraint-
    invariant maps: enumerating them all exceeded the default budget, while
    its layers reach 19,160 maps and find a section of length 3."""
    P = poset_from_relations(range(5), FENCE5)
    Q = power_poset(P, 2).restrict([
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 3), (1, 4),
        (2, 0), (3, 0), (3, 1), (4, 1),
    ])
    out = section_search(Q, P, 2, 0)
    assert out.record == {"m": 3, "stage": "sweep", "reached": 19160}
    rep = validate(out.witness)
    assert rep.ok, rep.failures


def test_sweep_budget_counts_maps_reached(circle_poset, monkeypatch):
    """The budget bounds the maps in A_m or B_m.  On the circle piece whose
    layers reach 81 maps, all of them in B_1, the up-cone of the
    projection, budget N < 80 stops the sweep at map N + 1, before B_1 is
    complete; budget 81 lets it answer."""
    L = power_poset(circle_poset, 2)
    Q = L.restrict([x for x in L.elements if not set(x) <= {"c", "d"}])
    assert section_search(Q, circle_poset, 2, 0, budget=81).record == {
        "stabilized_at": 4, "reached": 81,
    }

    closes = []
    close = sections._Sweep.close

    def spy(self, at, other, seeds, m, moves):
        try:
            return close(self, at, other, seeds, m, moves)
        finally:
            closes.append((self.reached, len(at)))

    monkeypatch.setattr(sections._Sweep, "close", spy)
    section_search(Q, circle_poset, 2, 0)
    layer_sizes = [size for _, size in closes]
    for budget in (5, 40, 79):
        closes.clear()
        with pytest.raises(BudgetExceeded,
                           match=f"^more than {budget} monotone maps$"):
            section_search(Q, circle_poset, 2, 0, budget=budget)
        reached, size = closes[-1]
        assert reached == budget + 1
        assert size < layer_sizes[len(closes) - 1]


def _cc_deciding_every_piece(P, n):
    """``cc_by_sections`` without the dominance walk: every invariant open
    piece is decided.  Returns the result and the good and bad pieces."""
    L = power_poset(P, n)
    outcomes = {
        p: section_search(L.restrict(p), P, n, 0)
        for p in invariant_open_pieces(L, n, 0)
    }
    whole = frozenset(L.elements)
    good = {p for p, out in outcomes.items() if out.yes}
    bad = set(outcomes) - good
    if whole in good:
        return {"k": 1, "cover": [whole], "m": outcomes[whole].witness.m,
                "witnesses": {whole: outcomes[whole]},
                "whole_space_good": True}, good, bad
    goods = [p for p in outcomes if p in good]
    maximal = [p for p in goods if not any(p < q for q in goods)]
    for k in range(2, len(maximal) + 1):
        for combo in combinations(maximal, k):
            if frozenset().union(*combo) == whole:
                return {"k": k, "cover": list(combo),
                        "m": max(outcomes[p].witness.m for p in combo),
                        "witnesses": {p: outcomes[p] for p in combo},
                        "whole_space_good": False}, good, bad
    return {"k": None, "cover": [], "m": None, "witnesses": {},
            "whole_space_good": False}, good, bad


@pytest.mark.parametrize("n, max_size", [(2, 4), (3, 3)])
def test_dominance_walk_against_deciding_every_piece(n, max_size,
                                                     monkeypatch):
    """Good pieces form a down-set, so the walk may skip every piece above
    a bad one: each piece it skips is bad, and its cover, m and witnesses
    are those found by deciding every piece."""
    decided = []

    def spy(Q, *args, **kwargs):
        decided.append(frozenset(Q.elements))
        return section_search(Q, *args, **kwargs)

    monkeypatch.setattr(sections, "section_search", spy)
    for size, rel in connected_posets_up_to_iso(max_size):
        P = poset_from_relations(range(size), sorted(rel))
        want, good, bad = _cc_deciding_every_piece(P, n)
        assert not any(q < p for p in good for q in bad)
        decided.clear()
        got = cc_by_sections(P, n)
        assert got["pieces_tested"] == len(decided) == len(set(decided))
        if want["whole_space_good"]:
            assert decided == [frozenset(power_poset(P, n).elements)]
        else:
            assert (good | bad) - set(decided) <= bad
        for key in ("k", "cover", "m", "whole_space_good"):
            assert got[key] == want[key]
        assert {p: out.witness.to_doc() for p, out in got["witnesses"].items()} \
            == {p: out.witness.to_doc() for p, out in want["witnesses"].items()}


def test_section_search_outcomes_pinned_on_small_posets():
    """sha256 over the canonical JSON of (status, record, witness document)
    of every invariant open piece of every connected poset of at most 4
    points at n = 2, 505 pieces in all."""
    digest = hashlib.sha256()
    count = 0
    for size, rel in connected_posets_up_to_iso(4):
        P = poset_from_relations(range(size), sorted(rel))
        L = power_poset(P, 2)
        for piece in invariant_open_pieces(L, 2, 0):
            out = section_search(L.restrict(piece), P, 2, 0)
            doc = None if out.witness is None else out.witness.to_doc()
            digest.update(canonical_json([out.status, out.record, doc]).encode())
            count += 1
    assert count == 505
    assert digest.hexdigest() == (
        "da22aa4f7f5a385d19a4d18fc713df4881a368fdeadc69150d1bac7f67379d63"
    )


# 0, 1, 2 < 3 and 0, 1 < 4
FIVE_POINTS = [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4)]


def test_sections_answer_above_a_piece_past_the_budget():
    """Decided one by one, 36 of the 327 invariant opens of this poset's
    square overrun the default map budget.  Each lies above a bad piece,
    so the walk answers without deciding any of them."""
    P = poset_from_relations(range(5), FIVE_POINTS)
    res = tc_sigma_finite_sections(P, 2)
    assert (res.kind, res.whole_space_good) == ("infinite", False)
