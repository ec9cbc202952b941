"""The acceptance gate: one test per criterion, each printing a verdict line.

Criteria run in order; certificates emitted along the way are collected in a
module-level registry so the soundness and determinism criteria can replay
everything that was produced.
"""

import time

from symtc.actions import act_name, symmetric_group
from symtc.complexes import euler_characteristic, from_facets
from symtc.complexity import (
    INFINITY,
    cc_plain,
    cc_sigma,
    sc_plain,
    sc_sigma,
    tc_sigma_finite,
    tc_sigma_finite_sections,
)
from symtc.constructions import (
    build_tower,
    carrier_condition_holds,
    poset_tower,
)
from symtc.io import canonical_json
from symtc.posets import order_complex, poset_from_relations
from symtc.translate import (
    contiguity_to_homotopy,
    homotopy_to_contiguity,
    retract_section,
    section_from_homotopy,
)
from symtc.verify import validate
from symtc.witnesses import certificate_from_doc

from helpers import connected_posets_up_to_iso

REGISTRY = {"certs": [], "values": {}}


def _report(number, started, detail=""):
    elapsed = time.monotonic() - started
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: PASS in {elapsed:.2f}s{suffix}")


def _collect(result):
    for piece in result.cover:
        REGISTRY["certs"].append(piece.witness)
    return result


def point_complex():
    return from_facets("a", [("a",)])


def point_poset():
    return poset_from_relations("a", [])


def edge():
    return from_facets("ab", [("a", "b")])


def triangle():
    return from_facets("abc", [("a", "b", "c")])


def hollow_triangle():
    return from_facets("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def chain2():
    return poset_from_relations([0, 1], [(0, 1)])


def v_poset():
    return poset_from_relations("pqr", [("p", "r"), ("q", "r")])


def circle_poset():
    return poset_from_relations(
        "abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )


def test_criterion_1_trivial_suite():
    started = time.monotonic()
    K, P = point_complex(), point_poset()
    for n in (2, 3):
        for r in (0, 1):
            for fn, instance in (
                (sc_plain, K),
                (sc_sigma, K),
                (cc_plain, P),
                (cc_sigma, P),
            ):
                res = _collect(fn(instance, n=n, r=r))
                assert res.kind == "exact" and res.value == 1, (fn, n, r)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"trivial suite took {elapsed:.2f}s"
    _report(1, started, "16 runs, all exactly 1")


def test_criterion_2_structure_counts():
    started = time.monotonic()
    sd2 = build_tower(triangle(), 1, 1).levels[1]
    assert len(sd2.vertices) == 7
    assert len(sd2.base.facets) == 6

    for K in (edge(), hollow_triangle()):
        tower = build_tower(K, 2, 2)
        for r in (0, 1):
            assert len(tower.levels[r + 1].vertices) == len(
                tower.levels[r].base.simplices
            )

    tower = build_tower(edge(), 2, 0)
    sq = tower.levels[0]
    assert len(sq.vertices) == 4
    assert len([s for s in sq.base.simplices if len(s) == 2]) == 5
    assert len(sq.base.facets) == 2
    assert euler_characteristic(sq.base) == 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(2, started, "sd and power counts exact")


def test_criterion_3_carrier_and_equivariance():
    started = time.monotonic()
    group = symmetric_group(2)
    for K in (edge(), triangle(), hollow_triangle()):
        tower = build_tower(K, 2, 1)
        approx, level = tower.maps[0], tower.levels[1]
        assert carrier_condition_holds(approx, level)
        for g in group:
            for v in level.vertices:
                assert approx(act_name(g, v, 1)) == act_name(g, approx(v), 0)
    for P in (chain2(), v_poset(), circle_poset()):
        tower = poset_tower(P, 2, 1)
        approx, level = tower.maps[0], tower.levels[1]
        for c in level.elements:
            assert approx(c) in c  # the last element lies in its chain
        for g in group:
            for x in level.elements:
                assert approx(act_name(g, x, 1)) == act_name(g, approx(x), 0)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(3, started, "exhaustive on six squared instances")


def test_criterion_4_oracle_equivalence():
    started = time.monotonic()
    universe = connected_posets_up_to_iso(4)
    assert len(universe) == 15  # 1 + 1 + 3 + 10 connected posets up to iso
    disagreements = []
    for size, rel in universe:
        P = poset_from_relations(range(size), sorted(rel))
        a = _collect(tc_sigma_finite(P, 2))
        b = tc_sigma_finite_sections(P, 2)
        REGISTRY["values"][("tc", size, tuple(sorted(rel)))] = a.value
        if a.value != b.value:
            disagreements.append((size, sorted(rel), a.value, b.value))
    assert not disagreements, disagreements
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _report(4, started, f"{len(universe)} posets, two routes agree")


def test_criterion_5_monotonicity():
    started = time.monotonic()
    # (a) m-retraction: every section witness stays valid at m + 1
    retracted = 0
    for P in (point_poset(), chain2(), v_poset()):
        res = cc_sigma(P, 2, 0)
        for piece in res.cover:
            s = section_from_homotopy(piece.witness)
            assert validate(s).ok
            s2 = retract_section(s)
            assert s2.m == s.m + 1
            rep = validate(s2)
            assert rep.ok, rep.failures
            REGISTRY["certs"].extend([s, s2])
            retracted += 1
    assert retracted >= 3

    # (b) r-monotonicity at n = 2
    for fn, instance, name in (
        (sc_sigma, edge(), "edge"),
        (cc_sigma, v_poset(), "v"),
        (cc_sigma, chain2(), "chain2"),
    ):
        r0 = _collect(fn(instance, 2, 0))
        r1 = _collect(fn(instance, 2, 1))
        assert r0.kind == r1.kind == "exact"
        assert r1.value <= r0.value, name
        REGISTRY["values"][(fn.__name__, name, 0)] = r0.value
        REGISTRY["values"][(fn.__name__, name, 1)] = r1.value
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _report(5, started, f"{retracted} retractions; r-monotone on 3 instances")


def test_criterion_6_order_suites():
    started = time.monotonic()
    # plain <= sigma on the instances of criteria 1-5
    pairs = [
        (sc_plain, sc_sigma, point_complex(), 2, 0),
        (sc_plain, sc_sigma, point_complex(), 3, 1),
        (sc_plain, sc_sigma, edge(), 2, 0),
        (sc_plain, sc_sigma, edge(), 2, 1),
        (cc_plain, cc_sigma, point_poset(), 2, 0),
        (cc_plain, cc_sigma, chain2(), 2, 0),
        (cc_plain, cc_sigma, chain2(), 2, 1),
        (cc_plain, cc_sigma, v_poset(), 2, 0),
        (cc_plain, cc_sigma, v_poset(), 2, 1),
        (cc_plain, cc_sigma, circle_poset(), 2, 0),
    ]
    for plain_fn, sigma_fn, instance, n, r in pairs:
        plain = _collect(plain_fn(instance, n, r))
        sigma = _collect(sigma_fn(instance, n, r))
        assert plain.best() <= sigma.best() or sigma.value == INFINITY

    # bridge: cc_sigma(P, 2, r) >= sc_sigma(K(P), 2, r)
    for P in (chain2(), v_poset()):
        K = order_complex(P).base
        for r in (0, 1):
            cc = cc_sigma(P, 2, r)
            sc = _collect(sc_sigma(K, 2, r))
            assert cc.best() >= sc.lower
            if cc.kind == "exact" and sc.kind == "exact":
                assert cc.value >= sc.value
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _report(6, started, "plain <= symmetric and bridge inequality hold")


def test_criterion_7_circle_lower_bounds():
    started = time.monotonic()
    sc_res = _collect(sc_sigma(hollow_triangle(), 2, 0, mode="upper"))
    assert not sc_res.whole_space_good
    rec = sc_res.stats["whole_record"]
    assert rec["exhausted_component"]
    assert rec["total_nodes"] > 0
    assert sc_res.lower >= 2

    cc_res = cc_sigma(circle_poset(), 2, 0)
    assert cc_res.whole_space_good is False
    rec = cc_res.stats["whole_record"]
    assert rec["exhausted_component"]
    assert cc_res.lower >= 2
    REGISTRY["values"][("sc_hollow_lower",)] = sc_res.lower
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _report(
        7,
        started,
        f"whole-space exhaustion records: {sc_res.stats['whole_record']['total_nodes']} "
        f"and {cc_res.stats['whole_record']['total_nodes']} nodes",
    )


def test_criterion_8_contractibility():
    started = time.monotonic()
    values = {}
    for r in (0, 1):
        res = _collect(sc_sigma(edge(), 2, r))
        values[r] = res.value
        for piece in res.cover:
            assert validate(piece.witness).ok
    assert 1 in values.values()

    res = cc_sigma(v_poset(), 2, 0)
    assert res.value == 1
    for piece in res.cover:
        rep = validate(piece.witness)
        assert rep.ok, rep.failures
        REGISTRY["certs"].append(piece.witness)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(8, started, "contractible instances give value 1 with certificates")


def test_criterion_9_certificate_soundness():
    started = time.monotonic()
    assert REGISTRY["certs"], "earlier criteria emitted no certificates"
    for cert in REGISTRY["certs"]:
        doc = cert.to_doc()
        replayed = certificate_from_doc(doc)
        rep = validate(replayed)
        assert rep.ok, (doc["type"], rep.failures)

    # translator round-trip on the V-poset witness
    res = cc_sigma(v_poset(), 2, 0)
    witness = res.cover[0].witness
    chain = homotopy_to_contiguity(witness)
    rep = validate(chain)
    assert rep.ok, rep.failures
    back = contiguity_to_homotopy(chain)
    rep = validate(back)
    assert rep.ok, rep.failures
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(
        9, started,
        f"{len(REGISTRY['certs'])} certificates replayed; round-trip valid",
    )


def _determinism_battery():
    """A battery touching every searcher; returns all certificate bytes."""
    blobs = []

    def emit(res):
        for piece in res.cover:
            blobs.append(canonical_json(piece.witness.to_doc()))
        blobs.append(canonical_json(res.to_doc()))

    emit(cc_sigma(v_poset(), 2, 0))
    emit(sc_sigma(edge(), 2, 1))
    emit(sc_plain(edge(), 2, 0))
    emit(sc_sigma(hollow_triangle(), 2, 0, mode="upper"))
    emit(cc_plain(circle_poset(), 2, 0))
    emit(tc_sigma_finite(v_poset(), 2))
    sections = tc_sigma_finite_sections(v_poset(), 2)
    blobs.append(canonical_json(sections.to_doc()))
    return blobs


def test_criterion_10_determinism():
    started = time.monotonic()
    first = _determinism_battery()
    second = _determinism_battery()
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a == b
    _report(10, started, f"{len(first)} artifacts byte-identical across runs")
