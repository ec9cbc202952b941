"""Exact-mode searchers versus independent brute-force reachability oracles.

The oracles enumerate maps with itertools-style recursion and explore the
comparability / contiguity graph with an explicit adjacency predicate; they
share nothing with the package's searchers.
"""

from symtc.actions import act_name, symmetric_group, transposition
from symtc.constructions import build_tower, poset_tower, projection_pi, projection_rho
from symtc.posets import MonotoneMap, poset_from_relations, power_poset
from symtc.search import sym_comb_homotopic, sym_contiguous
from symtc.sections import invariant_open_pieces

from helpers import brute_monotone_maps, brute_simplicial_maps, connected_posets_up_to_iso, le_table, reachable


def _oracle_sym_homotopic(Q, P, rho_tables, n):
    """Zigzag reachability from the projection to an invariant map.

    Maps are enumerated and compared through element indices, with the
    order relations read through ``le`` into tables once."""
    lq, lp = le_table(Q), le_table(P)
    nq = len(Q.elements)
    maps = brute_monotone_maps(
        range(nq), lambda i, j: lq[i][j],
        range(len(P.elements)), lambda a, b: lp[a][b],
    )
    keys = [tuple(m[i] for i in range(nq)) for m in maps]
    # one bit field of width |P| per element of Q: ``value`` sets the bit of
    # the map's value there, ``above`` the bits of every value >= it, so
    # k1 <= k2 pointwise iff value[k2] lies inside above[k1]
    width = len(P.elements)
    value = {
        k: sum(1 << (width * i + a) for i, a in enumerate(k)) for k in keys
    }
    above = {
        k: sum(
            1 << (width * i + b)
            for i, a in enumerate(k) for b in range(width) if lp[a][b]
        )
        for k in keys
    }

    def adjacent(k1, k2):
        v1, v2 = value[k1], value[k2]
        return above[k1] & v2 == v2 or above[k2] & v1 == v1

    start = tuple(P.index[rho_tables[0][x]] for x in Q.elements)
    component = reachable([start], keys, adjacent)
    group = symmetric_group(n)
    moved = [
        [Q.index[act_name(g, x, 0)] for x in Q.elements] for g in group
    ]
    for k in component:
        if all(k[gi] == k[i] for g in moved for i, gi in enumerate(g)):
            return True
    return False


def test_whole_space_agreement_all_small_posets():
    """Route agreement on the full product for every connected poset with
    at most 3 elements, including the goodness verdict itself."""
    for size, rel in connected_posets_up_to_iso(3):
        P = poset_from_relations(range(size), sorted(rel))
        tower = poset_tower(P, 2, 0)
        rhos = [projection_rho(tower, j) for j in (1, 2)]
        res = sym_comb_homotopic(rhos, 2, 0, mode="exact", budget=200_000)
        want = _oracle_sym_homotopic(
            tower.top(), P, [r.mapping for r in rhos], 2
        )
        assert res.yes == want, (size, sorted(rel))


def test_piece_agreement_on_v_and_circle(v_poset, circle_poset):
    """Goodness verdicts agree with the oracle on every invariant open."""
    for P in (v_poset, circle_poset):
        L = power_poset(P, 2)
        tower = poset_tower(P, 2, 0)
        rhos = [projection_rho(tower, j) for j in (1, 2)]
        for piece in invariant_open_pieces(L, 2, 0):
            Q = L.restrict(piece)
            restricted = [
                MonotoneMap(Q, P, {x: f.mapping[x] for x in Q.elements})
                for f in rhos
            ]
            res = sym_comb_homotopic(restricted, 2, 0, mode="exact",
                                     budget=200_000)
            want = _oracle_sym_homotopic(
                Q, P, [f.mapping for f in restricted], 2
            )
            assert res.yes == want, (P.elements, sorted(piece))


def test_simplicial_agreement_on_square_pieces(edge):
    """Contiguity verdicts agree with the oracle on symmetric subcomplexes
    of the square."""
    from symtc.complexes import restrict_map, subcomplex_from_simplices
    from symtc.actions import act_simplex

    tower = build_tower(edge, 2, 0)
    sq = tower.top().base
    K = tower.factor.base
    maps = [projection_pi(tower, j) for j in (1, 2)]
    group = symmetric_group(2)

    # all symmetric subcomplexes: invariant downward closed simplex families
    from itertools import combinations

    simplices = sorted(sq.simplices, key=sorted)
    families = []
    for k in range(1, len(simplices) + 1):
        for combo in combinations(simplices, k):
            fam = set(combo)
            if any(act_simplex(g, s, 0) not in fam for g in group for s in fam):
                continue
            if any(
                frozenset(sub) not in fam
                for s in fam
                for m in range(1, len(s))
                for sub in combinations(s, m)
            ):
                continue
            families.append(fam)
        if k >= 4:
            break  # keep the family count bounded; small ones are the point

    assert families
    for fam in families:
        piece = subcomplex_from_simplices(sq, fam)
        restricted = [restrict_map(f, piece) for f in maps]
        res = sym_contiguous(restricted, 2, 0, mode="exact")
        # oracle: reachability over brute-forced simplicial maps
        oracle_maps = brute_simplicial_maps(
            piece.vertices, piece.simplices, K.vertices, K.simplices
        )
        keys = [tuple(m[v] for v in piece.vertices) for m in oracle_maps]

        def adjacent(k1, k2, piece=piece):
            m1 = dict(zip(piece.vertices, k1))
            m2 = dict(zip(piece.vertices, k2))
            return all(
                K.is_simplex(
                    frozenset(m1[v] for v in s) | frozenset(m2[v] for v in s)
                )
                for s in piece.simplices
            )

        start = tuple(restricted[0].vertex_map[v] for v in piece.vertices)
        component = reachable([start], keys, adjacent)
        swap = transposition(2, 1, 2)
        want = any(
            all(
                dict(zip(piece.vertices, k))[act_name(swap, v, 0)]
                == dict(zip(piece.vertices, k))[v]
                for v in piece.vertices
            )
            for k in component
        )
        assert res.yes == want, sorted(map(sorted, fam))


def test_action_validity_at_tower_levels(edge, v_poset):
    """The induced action sends simplices to simplices of equal dimension
    and preserves the order at every level."""
    tower = build_tower(edge, 2, 1)
    group = symmetric_group(2)
    for r, level in enumerate(tower.levels):
        base = level.base
        for g in group:
            for s in base.simplices:
                img = frozenset(act_name(g, v, r) for v in s)
                assert base.is_simplex(img)
                assert len(img) == len(s)
            for a in level.order.elements:
                for b in level.order.elements:
                    if level.order.le(a, b):
                        assert level.order.le(
                            act_name(g, a, r), act_name(g, b, r)
                        )

    ptower = poset_tower(v_poset, 2, 1)
    for r, level in enumerate(ptower.levels):
        for g in group:
            for a in level.elements:
                ga = act_name(g, a, r)
                assert ga in level
                for b in level.elements:
                    if level.le(a, b):
                        assert level.le(ga, act_name(g, b, r))


def test_tc_routes_agree_n3_small():
    """Both level-0 routes agree at n = 3, exercising the nontrivial
    constraint group, on every connected poset with <= 3 elements."""
    from symtc.complexity import tc_sigma_finite, tc_sigma_finite_sections

    for size, rel in connected_posets_up_to_iso(3):
        P = poset_from_relations(range(size), sorted(rel))
        a = tc_sigma_finite(P, 3)
        b = tc_sigma_finite_sections(P, 3)
        assert a.value == b.value, (size, sorted(rel))


def test_int_label_certificates_round_trip(chain2):
    """Certificates over integer-labeled posets survive JSON round trips."""
    from symtc.complexity import cc_sigma
    from symtc.io import canonical_json
    from symtc.verify import validate
    from symtc.witnesses import certificate_from_doc

    res = cc_sigma(chain2, 2, 1)
    for piece in res.cover:
        doc = piece.witness.to_doc()
        again = certificate_from_doc(doc)
        assert validate(again).ok
        assert canonical_json(again.to_doc()) == canonical_json(doc)
