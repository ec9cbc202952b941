import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from symtc.actions import (
    act_fence_point,
    act_name,
    symmetric_group,
    transposition,
)
from symtc.cli import main
from symtc.complexity import cc_plain, cc_sigma, sc_sigma
from symtc.constructions import (
    build_tower,
    poset_tower,
    projection_pi,
    projection_rho,
)
from symtc.io import canonical_json
from symtc.posets import MonotoneMap
from symtc.search import sym_comb_homotopic, sym_contiguous
from symtc.translate import section_from_homotopy
from symtc.util import name_of
from symtc.errors import ParseError
from symtc.verify import projection_of_name, validate
from symtc.witnesses import certificate_from_doc


def make_chain(K, n=2, r=0):
    tower = build_tower(K, n, r)
    maps = [projection_pi(tower, j) for j in range(1, n + 1)]
    res = sym_contiguous(maps, n, r, target_ordered=tower.factor)
    assert res.yes
    res.witness.projection_endpoints = True
    return res.witness


def make_homotopy(P, n=2, r=0):
    tower = poset_tower(P, n, r)
    maps = [projection_rho(tower, j) for j in range(1, n + 1)]
    res = sym_comb_homotopic(maps, n, r, mode="auto")
    assert res.yes
    res.witness.projection_endpoints = True
    return res.witness


def test_emitted_chain_validates(edge):
    assert validate(make_chain(edge))


def test_emitted_homotopy_validates(v_poset):
    assert validate(make_homotopy(v_poset))


def test_chain_round_trip_through_json(edge):
    chain = make_chain(edge)
    doc = chain.to_doc()
    again = certificate_from_doc(doc)
    assert validate(again)
    assert canonical_json(again.to_doc()) == canonical_json(doc)


def test_homotopy_round_trip_through_json(v_poset):
    H = make_homotopy(v_poset)
    doc = H.to_doc()
    again = certificate_from_doc(doc)
    assert validate(again)
    assert canonical_json(again.to_doc()) == canonical_json(doc)


def test_section_round_trip_through_json(v_poset):
    s = section_from_homotopy(make_homotopy(v_poset))
    doc = s.to_doc()
    again = certificate_from_doc(doc)
    assert validate(again)
    assert canonical_json(again.to_doc()) == canonical_json(doc)


def test_corrupted_homotopy_is_rejected(v_poset):
    H = make_homotopy(v_poset)
    bad = copy.deepcopy(H)
    # raise one entry to the top: breaks either an endpoint or monotonicity
    key = (("p", "q"), bad.fence().end(1))
    bad.table[key] = "r"
    rep = validate(bad)
    assert not rep.ok
    assert rep.failures


def test_corrupted_chain_is_rejected(edge):
    chain = make_chain(edge)
    bad = copy.deepcopy(chain)
    bad.levels[0][0][("a", "a")] = "b"
    rep = validate(bad)
    assert not rep.ok


def test_nonequivariant_chain_names_violation(edge):
    chain = make_chain(edge)
    bad = copy.deepcopy(chain)
    last = bad.levels[-1]
    # damage one branch only, breaking f_j(gx) = f_{g(j)}(x)
    last[1][("a", "b")] = "a"
    rep = validate(bad)
    assert not rep.ok
    assert any("equivariance" in msg or "projection" in msg for msg in rep.failures)


def test_corrupted_section_is_rejected(v_poset):
    s = section_from_homotopy(make_homotopy(v_poset))
    bad = copy.deepcopy(s)
    x = ("p", "q")
    bad.paths[x][bad.fence().end(2)] = "r"
    rep = validate(bad)
    assert not rep.ok


# -- section corruption ------------------------------------------------------
# A symmetric circle section: the piece of the circle's square below (c, c)
# is good at n = 2, r = 0, and its homotopy read by source point is the
# section.  Each mutant breaks one check; the symmetry and endpoint mutants
# stay monotone (by the test's own product-order check), so only the check
# they target can reject them.


def circle_section(circle_poset):
    tower = poset_tower(circle_poset, 2, 0)
    top = tower.top()
    Q = top.restrict(top.down_set(("c", "c")))
    maps = [MonotoneMap(Q, f.target, {x: f.mapping[x] for x in Q.elements})
            for f in (projection_rho(tower, j) for j in (1, 2))]
    res = sym_comb_homotopic(maps, 2, 0, mode="auto")
    assert res.yes
    res.witness.projection_endpoints = True
    return section_from_homotopy(res.witness)


def _product_monotone(s):
    """Is the section, as a table Q x J -> P, monotone in the product
    order?  Pairwise, on the posets' ``le``."""
    Q, P, J = s.source, s.target, s.fence().poset
    cells = [(x, t) for x in Q.elements for t in J.elements]
    return all(P.le(s.paths[x][t], s.paths[y][u])
               for x, t in cells for y, u in cells
               if Q.le(x, y) and J.le(t, u))


def _mirror(x, t):
    """The cell a symmetric section ties to (x, t) at n = 2."""
    g = transposition(2, 1, 2)
    return act_name(g, x, 0), act_fence_point(g, t)


def _first_monotone(s, changes):
    """A copy of ``s`` with the first change (a dict of cells to values)
    that keeps it monotone."""
    for change in changes:
        bad = copy.deepcopy(s)
        for (x, t), v in change.items():
            bad.paths[x][t] = v
        if _product_monotone(bad):
            return bad
    raise AssertionError("no monotone change")


def _outside(s):
    x = s.source.elements[0]
    s.paths[x][s.fence().end(1)] = "not-in-the-target"
    return s


def _fence_break(s):
    """Below some fence relation t <= u, a value not below the value at u."""
    J, P = s.fence().poset, s.target
    x = s.source.elements[0]
    t, u = next((t, u) for t in J.elements for u in J.elements
                if t != u and J.le(t, u))
    s.paths[x][t] = next(p for p in P.elements
                         if not P.le(p, s.paths[x][u]))
    return s


def _source_break(s):
    """The paths of some x < y swapped: each path stays a fence path."""
    Q = s.source
    x, y = next((x, y) for x in Q.elements for y in Q.elements
                if x != y and Q.le(x, y) and s.paths[x] != s.paths[y])
    s.paths[x], s.paths[y] = s.paths[y], s.paths[x]
    return s


def _symmetry_break(s):
    """One cell changed away from its mirror, off the endpoints."""
    J = s.fence()
    ends = {J.end(j) for j in (1, 2)}
    return _first_monotone(s, (
        {(x, t): p}
        for x in s.source.elements for t in J.poset.elements
        if t not in ends and _mirror(x, t) != (x, t)
        for p in s.target.elements if p != s.paths[x][t]
    ))


def _endpoint_moved(s):
    """An endpoint and its mirror moved together: still symmetric."""
    J = s.fence()
    return _first_monotone(s, (
        {(x, J.end(j)): p, _mirror(x, J.end(j)): p}
        for x in s.source.elements for j in (1, 2)
        for p in s.target.elements if p != s.paths[x][J.end(j)]
    ))


def _missing_point(s):
    x = s.source.elements[-1]
    del s.paths[x][s.fence().end(2)]
    return s


SECTION_MUTANTS = {
    "outside": (_outside, ("outside the target",)),
    "fence": (_fence_break, ("not monotone",)),
    "source": (_source_break, ("not monotone",)),
    "symmetry": (_symmetry_break, ("symmetry", "equivariance")),
    "endpoint": (_endpoint_moved, ("disagrees with the projection",)),
    "missing": (_missing_point, ("misses",)),
}


def test_circle_section_validates(circle_poset):
    s = circle_section(circle_poset)
    assert s.symmetric and _product_monotone(s)
    assert validate(s)


@pytest.mark.parametrize("kind", sorted(SECTION_MUTANTS))
def test_corrupted_circle_section_is_rejected(kind, circle_poset):
    mutate, needles = SECTION_MUTANTS[kind]
    rep = validate(mutate(copy.deepcopy(circle_section(circle_poset))))
    assert not rep.ok
    assert any(needle in rep.failures[0] for needle in needles), rep.failures


def test_projection_recompute_depth0():
    assert projection_of_name(("a", "b"), 0, 1, lambda u, v: True) == "a"
    assert projection_of_name(("a", "b"), 0, 2, lambda u, v: True) == "b"


def test_projection_recompute_depth1(chain2):
    le = chain2.le
    # a chain of grid points: the last element is (1, 1)
    name = ((0, 0), (1, 1))
    assert projection_of_name(name, 1, 1, le) == 1
    assert projection_of_name(name, 1, 2, le) == 1


def test_projection_recompute_depth2(chain2):
    le = chain2.le
    inner = ((0, 0),)
    outer = ((0, 0), (0, 1))
    name = (inner, outer)  # a chain of chains; the larger one wins
    assert projection_of_name(name, 2, 2, le) == 1


def test_projection_order_against_label_order():
    """1 < 0: a chain listed in label order runs downward in the poset."""
    from symtc.complexity import cc_plain, cc_sigma
    from symtc.posets import poset_from_relations

    P = poset_from_relations([0, 1], [(1, 0)])
    assert projection_of_name(((0, 0), (0, 1)), 1, 2, P.le) == 0
    for fn in (cc_sigma, cc_plain):
        res = fn(P, 2, 1)
        assert res.cover
        for piece in res.cover:
            assert validate(piece.witness)


def test_validator_catches_projection_lie(v_poset):
    H = make_homotopy(v_poset)
    bad = copy.deepcopy(H)
    # claim projection endpoints but tamper with one endpoint consistently
    J = bad.fence()
    for x in bad.source.elements:
        bad.table[(x, J.end(1))] = "r"
    rep = validate(bad)
    assert not rep.ok


def test_chain_with_noninvariant_source_is_rejected():
    """The swap moves the source {(0,1),(1,1)} off itself."""
    from symtc.complexes import from_facets
    from symtc.witnesses import ContiguityChain

    source = from_facets([(0, 1), (1, 1)], [[(0, 1), (1, 1)]])
    target = from_facets([0, 1], [[0, 1]])
    f = {(0, 1): 0, (1, 1): 1}
    chain = ContiguityChain(
        n=2, depth=0, symmetric=True, source=source, target=target,
        levels=[[dict(f), dict(f)]],
    )
    rep = validate(chain)
    assert not rep.ok
    assert rep.failures == ["source is not invariant: (0, 1) -> (1, 0)"]


def test_section_with_noninvariant_source_is_rejected(chain2):
    from symtc.posets import multi_fence, poset_from_relations
    from symtc.witnesses import SectionWitness

    Q = poset_from_relations([(0, 1), (1, 1)], [((0, 1), (1, 1))])
    basepoint, = multi_fence(2, 0).poset.elements
    s = SectionWitness(
        n=2, m=0, depth=0, symmetric=True, source=Q, target=chain2,
        paths={(0, 1): {basepoint: 0}, (1, 1): {basepoint: 1}},
    )
    rep = validate(s)
    assert not rep.ok
    assert rep.failures == ["source is not invariant: (0, 1) -> (1, 0)"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_checker_action_agrees_with_act_name(data):
    """The checker's own memoized action is ``actions.act_name``."""
    from symtc.verify import _name_action

    n = data.draw(st.sampled_from([2, 3]))
    depth = data.draw(st.integers(0, 2))
    labels = st.sampled_from([0, 1, 2, "a", "b"])
    names = st.tuples(*[labels] * n)
    for _ in range(depth):
        names = st.lists(names, min_size=1, max_size=3, unique=True).map(
            name_of
        )
    family = data.draw(st.lists(names, min_size=1, max_size=6))
    group = symmetric_group(n)
    tables = _name_action(group, family, depth)
    assert len(tables) == len(group)
    for g, table in zip(group, tables):
        assert set(table) == set(family)
        for x in family:
            assert table[x] == act_name(g, x, depth)


# -- a key listed twice ----------------------------------------------------
# Each reader builds a dict from rows; a repeated key would let a later row
# replace an earlier, contradicting one unseen, so it is a parse error.


def chain_with_repeated_key(edge):
    """``sc_sigma(edge, 2, 1)``'s chain, its first map also sending its
    first key to another target vertex, in a row before the original."""
    res = sc_sigma(edge, 2, 1)
    doc = json.loads(canonical_json(res.cover[0].witness.to_doc()))
    table = doc["levels"][0][0]
    k, v = table[0]
    other = next(x for x in doc["target"]["vertices"] if x != v)
    table.insert(0, [k, other])
    return doc


def homotopy_with_repeated_cell(v_poset):
    """``cc_sigma(V, 2, 0)``'s homotopy with a contradicting first row."""
    res = cc_sigma(v_poset, 2, 0)
    doc = json.loads(canonical_json(res.cover[0].witness.to_doc()))
    x, t, v = doc["table"][0]
    other = next(p for p in doc["target"]["elements"] if p != v)
    doc["table"].insert(0, [x, t, other])
    return doc


def section_with_repeated_path(v_poset):
    """A section of ``cc_sigma(V, 2, 0)``'s homotopy whose first source
    point has a second, different path listed before its own."""
    res = cc_sigma(v_poset, 2, 0)
    doc = json.loads(canonical_json(
        section_from_homotopy(res.cover[0].witness).to_doc()))
    x, values = doc["paths"][0]
    other = next(p for p in doc["target"]["elements"] if p != values[0])
    doc["paths"].insert(0, [x, [other] + values[1:]])
    return doc


REPEATS = {
    "chain": (chain_with_repeated_key, "edge", "map table repeats a key"),
    "homotopy": (homotopy_with_repeated_cell, "v_poset",
                 "homotopy table repeats a cell"),
    "section": (section_with_repeated_path, "v_poset",
                "section repeats a path key"),
}


@pytest.mark.parametrize("kind", sorted(REPEATS))
def test_repeated_key_is_a_parse_error(kind, request):
    make, fixture, message = REPEATS[kind]
    doc = make(request.getfixturevalue(fixture))
    with pytest.raises(ParseError, match=message):
        certificate_from_doc(doc)


def test_section_point_list_repeating_a_point_is_a_parse_error(v_poset):
    res = cc_sigma(v_poset, 2, 0)
    doc = json.loads(canonical_json(
        section_from_homotopy(res.cover[0].witness).to_doc()))
    doc["points"][1] = doc["points"][0]
    with pytest.raises(ParseError, match="repeats a point"):
        certificate_from_doc(doc)


# -- cells outside the domain ------------------------------------------------
# A homotopy table's cells, and a section's paths and points, must be exactly
# Q x J_{n,m}.  The mutants start from the circle's ``cc_plain`` upper piece-0
# homotopy (m = 2, n = 2), or its section; each adds one cell outside, and
# ``check-certificate`` must exit 4 with one failure naming that cell.


def circle_homotopy_doc(circle_poset):
    res = cc_plain(circle_poset, 2, 0, mode="upper")
    return json.loads(canonical_json(res.cover[0].witness.to_doc()))


def circle_section_doc(circle_poset):
    H = certificate_from_doc(circle_homotopy_doc(circle_poset))
    return json.loads(canonical_json(section_from_homotopy(H).to_doc()))


def _row_outside_target(doc):
    x = doc["table"][0][0]
    doc["table"].append([x, [7, 1], "zzz"])
    return "(7, 1)"


def _row_outside_fence(doc):
    x, _, v = doc["table"][0]
    doc["table"].append([x, [1, 9], v])
    return "(1, 9)"


def _path_outside_source(doc):
    doc["paths"].append([["q", "q"], doc["paths"][0][1]])
    return "('q', 'q')"


def _point_outside_fence(doc):
    doc["points"].append([1, 9])
    for row in doc["paths"]:
        row[1].append(row[1][0])
    return "(1, 9)"


EXTRA_CELLS = {
    "homotopy-target": (circle_homotopy_doc, _row_outside_target),
    "homotopy-fence": (circle_homotopy_doc, _row_outside_fence),
    "section-path": (circle_section_doc, _path_outside_source),
    "section-point": (circle_section_doc, _point_outside_fence),
}


@pytest.mark.parametrize("kind", sorted(EXTRA_CELLS))
def test_cell_outside_the_domain_exits_4_through_the_cli(
        kind, circle_poset, tmp_path, capsys):
    make, mutate = EXTRA_CELLS[kind]
    doc = make(circle_poset)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["check-certificate", "--input", str(path)]) == 0
    capsys.readouterr()
    named = mutate(doc)
    path.write_text(json.dumps(doc))
    code = main(["check-certificate", "--input", str(path)])
    failures = json.loads(capsys.readouterr().out)["result"]["failures"]
    assert code == 4
    assert len(failures) == 1, failures
    assert "outside the source x fence" in failures[0]
    assert named in failures[0], failures
