import pytest

from symtc.complexes import (
    SimplicialMap,
    euler_characteristic,
    from_facets,
    identity_map,
    is_subcomplex,
    restrict_map,
    subcomplex_from_simplices,
    validate_simplicial_map,
)
from symtc.errors import EmptyFacet, NotASubcomplex, UnknownVertex
from symtc.io import complex_from_doc, complex_to_doc

from helpers import subsets_closure


def test_edge_closure(edge):
    assert edge.simplices == frozenset(
        [frozenset("a"), frozenset("b"), frozenset("ab")]
    )


def test_single_point(point_complex):
    assert len(point_complex.simplices) == 1


def test_hollow_triangle_closure(hollow_triangle):
    # oracle: enumerate subsets of each facet
    want = subsets_closure([("a", "b"), ("b", "c"), ("a", "c")])
    assert hollow_triangle.simplices == frozenset(want)
    assert len(hollow_triangle.simplices) == 6


def test_unknown_vertex():
    with pytest.raises(UnknownVertex):
        from_facets("ab", [("a", "c")])


def test_empty_facet():
    with pytest.raises(EmptyFacet):
        from_facets("ab", [()])


def test_isolated_vertex_is_simplex():
    K = from_facets("abc", [("a", "b")])
    assert K.is_simplex({"c"})
    assert frozenset("c") in K.facets


def test_identity_map_valid(hollow_triangle):
    assert validate_simplicial_map(identity_map(hollow_triangle))


def test_degenerate_collapse_valid(hollow_triangle):
    # collapsing an edge to a vertex is fine: images may drop dimension
    f = SimplicialMap(
        hollow_triangle, hollow_triangle, {"a": "a", "b": "a", "c": "c"}
    )
    assert validate_simplicial_map(f)


def test_map_to_simplex_image(hollow_triangle):
    f = SimplicialMap(
        hollow_triangle, hollow_triangle, {"a": "a", "b": "b", "c": "a"}
    )
    assert validate_simplicial_map(f)


def test_adjacent_to_antipodal_invalid(square_cycle):
    # a and b are adjacent; send them to the antipodal pair a, c
    f = SimplicialMap(
        square_cycle, square_cycle, {"a": "a", "b": "c", "c": "a", "d": "c"}
    )
    ok, offending = validate_simplicial_map(f, report=True)
    assert not ok
    assert offending is not None


def test_subcomplex_facet(hollow_triangle):
    L = from_facets("ab", [("a", "b")])
    assert is_subcomplex(L, hollow_triangle)


def test_boundary_subcomplex_of_full(triangle, hollow_triangle):
    assert is_subcomplex(hollow_triangle, triangle)
    assert not is_subcomplex(triangle, hollow_triangle)


def test_restrict_map(hollow_triangle):
    L = from_facets("ab", [("a", "b")])
    f = identity_map(hollow_triangle)
    g = restrict_map(f, L)
    assert set(g.vertex_map) == {"a", "b"}
    with pytest.raises(NotASubcomplex):
        restrict_map(restrict_map(f, L), hollow_triangle)


def test_euler(edge, triangle, hollow_triangle):
    assert euler_characteristic(edge) == 1
    assert euler_characteristic(hollow_triangle) == 3 - 3
    assert euler_characteristic(triangle) == 3 - 3 + 1


def test_composition_is_valid(hollow_triangle):
    f = SimplicialMap(
        hollow_triangle, hollow_triangle, {"a": "b", "b": "c", "c": "a"}
    )
    g = SimplicialMap(
        hollow_triangle, hollow_triangle, {"a": "a", "b": "a", "c": "c"}
    )
    assert validate_simplicial_map(f)
    assert validate_simplicial_map(g)
    g_after_f = SimplicialMap(
        hollow_triangle, hollow_triangle, {v: g(f(v)) for v in "abc"}
    )
    assert validate_simplicial_map(g_after_f)


def test_serialize_round_trip(hollow_triangle, square_cycle):
    for K in (hollow_triangle, square_cycle):
        doc = complex_to_doc(K)
        assert complex_from_doc(doc) == K
        assert complex_to_doc(complex_from_doc(doc)) == doc


def test_subcomplex_from_simplices(hollow_triangle):
    L = subcomplex_from_simplices(hollow_triangle, [frozenset("ab")])
    assert L.simplices == frozenset(
        [frozenset("a"), frozenset("b"), frozenset("ab")]
    )
    with pytest.raises(NotASubcomplex):
        subcomplex_from_simplices(hollow_triangle, [frozenset("abc")])


def test_unordered_message_ignores_hash_seed(tmp_path):
    """An order that is not total on some facet names the canonically first
    such facet and its first incomparable pair, whatever the interpreter's
    string hash seed."""
    import json
    import os
    import subprocess
    import sys

    import symtc

    path = tmp_path / "unordered.json"
    path.write_text(json.dumps({
        "vertices": ["p", "q", "r", "s", "t", "u"],
        "order": [["p", "q"], ["s", "t"]],
        "facets": [["s", "t", "u"], ["p", "q", "r"], ["r", "u"], ["q", "s"]],
    }))
    src = os.path.dirname(os.path.dirname(symtc.__file__))
    lines = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from symtc.cli import main; sys.exit(main())",
             "sd", "--input", str(path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 4, proc.stderr
        lines.append(proc.stderr)
    assert lines[0] == lines[1]
    assert lines[0] == (
        f"invalid input: {path}: simplex ('p', 'q', 'r') is not totally "
        f"ordered: 'p' and 'r' incomparable\n"
    )
