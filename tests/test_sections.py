import pytest

from symtc.posets import poset_from_relations, power_poset
from symtc.sections import cc_by_sections, invariant_open_pieces, section_search
from symtc.verify import validate


def test_invariant_open_pieces_are_opens(v_poset):
    L = power_poset(v_poset, 2)
    pieces = invariant_open_pieces(L, 2, 0)
    swap = {x: (x[1], x[0]) for x in L.elements}
    for piece in pieces:
        assert L.is_open(piece)
        assert all(swap[x] in piece for x in piece)
    # the whole space is among them
    assert frozenset(L.elements) in set(pieces)


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
# small-m stage, ("no", nodes, invariant_nodes, stabilized_at) from the sweep.
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
        ("ac ad ca da", "no", 468, 36, 5),
        ("bc bd cb db", "no", 468, 36, 5),
        ("ac ad bb ca da", "no", 1872, 144, 5),
        ("ac bc ca cb", "yes", 2),
        ("ac bd ca db", "no", 1156, 116, 9),
        ("ad bc cb da", "no", 1156, 116, 9),
        ("ad bd da db", "yes", 2),
        ("aa bc bd cb db", "no", 1872, 144, 5),
        ("cc", "yes", 2),
        ("dd", "yes", 2),
        ("ac ad bc ca cb da", "no", 5740, 228, 7),
        ("ac ad bd ca da db", "no", 5740, 228, 7),
        ("ac bc bd ca cb db", "no", 5740, 228, 7),
        ("ad bc bd cb da db", "no", 5740, 228, 7),
        ("ad cc da", "no", 1808, 168, 5),
        ("ac ca dd", "no", 1808, 168, 5),
        ("bd cc db", "no", 1808, 168, 5),
        ("bc cb dd", "no", 1808, 168, 5),
        ("ac ad bc bd ca cb da db", "no", 32148, 468, 4),
        ("ad bd cc da db", "no", 10052, 360, 4),
        ("ac bc ca cb dd", "no", 10052, 360, 4),
        ("cc dd", "no", 3468, 296, 4),
        ("cd dc", "no", 3468, 164, 4),
        ("cc cd dc", "no", 2860, 200, 4),
        ("cd dc dd", "no", 2860, 200, 4),
        ("cc cd dc dd", "no", 2836, 260, 2),
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
        ("ab ad ba da", "no", 468, 36, 5),
        ("bc cb cd dc", "no", 468, 36, 5),
        ("ab ad ba cc da", "no", 1872, 144, 5),
        ("ab ba bc cb", "yes", 2),
        ("ab ba cd dc", "no", 1156, 116, 9),
        ("ad bc cb da", "no", 1156, 116, 9),
        ("ad cd da dc", "yes", 2),
        ("aa bc cb cd dc", "no", 1872, 144, 5),
        ("bb", "yes", 2),
        ("dd", "yes", 2),
        ("ab ad ba bc cb da", "no", 5740, 228, 7),
        ("ab ad ba cd da dc", "no", 5740, 228, 7),
        ("ab ba bc cb cd dc", "no", 5740, 228, 7),
        ("ad bc cb cd da dc", "no", 5740, 228, 7),
        ("ad bb da", "no", 1808, 168, 5),
        ("ab ba dd", "no", 1808, 168, 5),
        ("bb cd dc", "no", 1808, 168, 5),
        ("bc cb dd", "no", 1808, 168, 5),
        ("ab ad ba bc cb cd da dc", "no", 32148, 468, 4),
        ("ad bb cd da dc", "no", 10052, 360, 4),
        ("ab ba bc cb dd", "no", 10052, 360, 4),
        ("bb dd", "no", 3468, 296, 4),
        ("bd db", "no", 3468, 164, 4),
        ("bb bd db", "no", 2860, 200, 4),
        ("bd db dd", "no", 2860, 200, 4),
        ("bb bd db dd", "no", 2836, 260, 2),
    ],
}

CIRCLE_LABELLINGS = {
    "ab<cd": [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    "ac<bd": [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")],
}


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
            assert set(rec) == {"nodes", "invariant_nodes", "stabilized_at"}
            got.append((key, "no", rec["nodes"], rec["invariant_nodes"],
                        rec["stabilized_at"]))
    assert got == CIRCLE_OUTCOMES[labelling]


def test_section_search_sweep_yes_pinned():
    """A piece of the 5-point fence 3 > 1 < 2 > 0 < 4 whose section needs a
    fence of length 3: the sweep finds it and the layers are reconstructed
    greedily, lowest node first."""
    P = poset_from_relations(range(5), [(0, 2), (0, 4), (1, 2), (1, 3)])
    L = power_poset(P, 2)
    Q = L.restrict([(0, 1), (0, 3), (1, 0), (1, 4), (3, 0), (4, 1)])
    out = section_search(Q, P, 2, 0)
    assert out.record == {"m": 3, "stage": "sweep", "nodes": 441}
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
