"""The positional document reader against the freezing reader it replaced.

``io.Names`` freezes each declared vertex or element once and resolves a
later occurrence of a label by comparing it, as parsed, with the declared
entry where the canonical writer puts it; only on a miss does it freeze and
look the label up.  The oracles in ``helpers`` freeze every occurrence and
build complexes and posets from names.  On documents that shuffle and repeat
the declared list, write facet members out of order or twice, mix int, str
and nested labels with the equal labels 1, 1.0 and true, and list map rows
out of order, missing or extra, both readers give the same complex, poset or
map, with the same objects, and the same error on every corruption.

Every container of a document must be a JSON array: a string in its place,
which the freezing reader read character by character, is one ParseError,
in process and through the CLI.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from symtc.cli import main
from symtc.complexes import base_of, from_facets
from symtc.constructions import build_tower
from symtc.errors import ParseError
from symtc.io import (
    complex_from_doc,
    complex_to_doc,
    map_table_from_doc,
    poset_from_doc,
    poset_to_doc,
    read_complex,
)
from symtc.posets import poset_from_relations
from symtc.translate import section_from_homotopy
from symtc.witnesses import certificate_from_doc

from helpers import (
    frozen_complex_from_doc,
    frozen_homotopy_table,
    frozen_map_table,
    frozen_poset_from_doc,
)

LEAVES = [0, 1, 2, -3, 1.0, 0.0, True, False, "a", "b", "1", ""]
labels = st.recursive(
    st.sampled_from(LEAVES),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(tuple),
    max_leaves=6,
)
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def parsed(doc):
    """``doc`` as JSON gives it back: tuples become lists; 1.0 and true
    stay a float and a bool."""
    return json.loads(json.dumps(doc))


def outcome(read, *args):
    try:
        return read(*args), None
    except Exception as exc:  # compared with the oracle's own failure
        return None, exc


def same_failure(new_exc, old_exc):
    assert (type(new_exc), str(new_exc)) == (type(old_exc), str(old_exc))


def assert_same_complex(new, old):
    assert type(new) is type(old)
    a, b = base_of(new), base_of(old)
    assert a._key == b._key
    assert repr(a.vertices) == repr(b.vertices)  # 1, 1.0 and True apart
    assert a.ranked_facets() == b.ranked_facets()
    assert getattr(new, "order", None) == getattr(old, "order", None)
    ids = {id(v) for v in a.vertices}
    assert all(id(v) in ids for s in a.simplices for v in s)


def check_complex(doc):
    new, new_exc = outcome(complex_from_doc, doc)
    old, old_exc = outcome(frozen_complex_from_doc, doc)
    if new_exc or old_exc:
        same_failure(new_exc, old_exc)
    else:
        assert_same_complex(new, old)


@st.composite
def complex_docs(draw, corrupt=False):
    """A complex document: the writer's, or one written by hand; then its
    declared list shuffled and repeated, facet members shuffled and
    repeated, and sometimes an order field."""
    pool = draw(st.lists(labels, min_size=1, max_size=7))
    facets = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=4), max_size=6))
    if draw(st.booleans()):
        doc = parsed(complex_to_doc(from_facets(pool, facets)))
        if draw(st.booleans()):
            return doc
    else:
        doc = parsed({"vertices": pool, "facets": facets})
    verts = doc["vertices"]
    verts += draw(st.lists(st.sampled_from(verts), max_size=3))
    doc["vertices"] = draw(st.permutations(verts))
    doc["facets"] = [
        draw(st.permutations(f + draw(st.lists(st.sampled_from(f),
                                               max_size=2))))
        for f in doc["facets"]
    ]
    if draw(st.booleans()):
        doc["order"] = draw(st.lists(st.lists(st.sampled_from(verts),
                                              min_size=2, max_size=2),
                                     max_size=4))
    return doc


@SETTINGS
@given(complex_docs())
def test_complex_reader_agrees_with_freezing_reader(doc):
    check_complex(doc)


CORRUPT_LABELS = {
    "undeclared": ["not", ["declared"]],
    "object": {"k": 1},
    "nested object": [1, {"k": [2]}],
}


def corrupt(doc, data):
    """One corruption: a facet member replaced by an undeclared label, a
    JSON object or a nested object; an empty facet; an object among the
    vertices; or, in an order field, one such label or a pair of three."""
    kind = data.draw(st.sampled_from(
        sorted(CORRUPT_LABELS) + ["empty", "object vertex", "order label",
                                  "long order pair"]))
    if kind in CORRUPT_LABELS:
        assume(doc["facets"])
        facet = data.draw(st.sampled_from(doc["facets"]))
        assume(facet)
        facet[data.draw(st.integers(0, len(facet) - 1))] = CORRUPT_LABELS[kind]
    elif kind == "empty":
        doc["facets"].insert(data.draw(st.integers(0, len(doc["facets"]))), [])
    elif kind == "object vertex":
        doc["vertices"].insert(
            data.draw(st.integers(0, len(doc["vertices"]))), {"k": 1})
    else:
        order = doc.setdefault("order", [])
        pair = [doc["vertices"][0], doc["vertices"][-1]]
        if kind == "order label":
            pair[data.draw(st.integers(0, 1))] = CORRUPT_LABELS[
                data.draw(st.sampled_from(sorted(CORRUPT_LABELS)))]
        else:
            pair.append(pair[0])
        order.insert(data.draw(st.integers(0, len(order))), pair)


@SETTINGS
@given(complex_docs(), st.data())
def test_complex_reader_agrees_on_corrupted_documents(doc, data):
    """One to three corruptions at once, so that the check that fails
    first is the freezing reader's."""
    for _ in range(data.draw(st.integers(1, 3))):
        corrupt(doc, data)
    check_complex(doc)


def _deep_doc():
    return parsed(complex_to_doc(build_tower(
        from_facets("ab", [("a", "b")]), 2, 2).top()))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("kind", ["undeclared", "object", "empty"])
def test_corrupted_deep_facet_fails_as_before(where, kind):
    """On the writer's own document, where every hint is taken: a member
    the previous facet's hint points to, replaced, fails as before."""
    doc = _deep_doc()
    facets = doc["facets"]
    i = {"first": 0, "middle": len(facets) // 2, "last": len(facets) - 1}[where]
    if kind == "undeclared":
        facets[i][-1] = [["a", "a"], ["z", "z"]]
    elif kind == "object":
        facets[i][0] = {"a": "a"}
    else:
        facets.insert(i, [])
    new, new_exc = outcome(complex_from_doc, doc)
    old, old_exc = outcome(frozen_complex_from_doc, doc)
    assert isinstance(old_exc, ParseError)
    same_failure(new_exc, old_exc)


def test_deep_doc_reads_back_to_the_writers_complex():
    doc = _deep_doc()
    assert_same_complex(complex_from_doc(doc), frozen_complex_from_doc(doc))


@st.composite
def poset_docs(draw):
    pool = draw(st.lists(labels, min_size=1, max_size=6))
    relations = draw(st.lists(st.lists(st.sampled_from(pool), min_size=2,
                                       max_size=2), max_size=6))
    if draw(st.booleans()):
        try:
            doc = parsed(poset_to_doc(poset_from_relations(pool, relations)))
        except Exception:
            doc = parsed({"elements": pool, "relations": relations})
    else:
        doc = parsed({"elements": pool, "relations": relations})
    elements = doc["elements"]
    elements += draw(st.lists(st.sampled_from(elements), max_size=3))
    doc["elements"] = draw(st.permutations(elements))
    relations = doc["relations"]
    for label in draw(st.lists(st.sampled_from(sorted(CORRUPT_LABELS)),
                               max_size=2)):
        pair = [elements[0], elements[-1]]
        pair[draw(st.integers(0, 1))] = CORRUPT_LABELS[label]
        relations.insert(draw(st.integers(0, len(relations))), pair)
    if draw(st.booleans()):
        relations.append([elements[0]] * 3)
    if draw(st.booleans()):
        doc["elements"].append({"k": 1})
    return doc


@SETTINGS
@given(poset_docs())
def test_poset_reader_agrees_with_freezing_reader(doc):
    new, new_exc = outcome(poset_from_doc, doc)
    old, old_exc = outcome(frozen_poset_from_doc, doc)
    if new_exc or old_exc:
        same_failure(new_exc, old_exc)
        return
    assert new == old
    assert repr(new.elements) == repr(old.elements)


@st.composite
def map_tables(draw):
    """A source and target document and one map's rows: keys from the
    source's declared list in any order, some missing, some repeated, some
    undeclared; values from the target's, some undeclared."""
    source = draw(complex_docs())
    target = draw(complex_docs())
    source.pop("order", None)
    target.pop("order", None)
    keys = draw(st.lists(st.sampled_from(source["vertices"]), max_size=8))
    keys += draw(st.lists(st.sampled_from([["zz"], "zz", 7.5]), max_size=2))
    values = target["vertices"] + [["zz"], "zz"]
    rows = [[k, draw(st.sampled_from(values))] for k in keys]
    return source, target, draw(st.permutations(rows))


def assert_own_objects(table, source, target):
    """Each declared key and value is the complex's own vertex object."""
    for k, v in table.items():
        if k in source.rank:
            assert k is source.vertices[source.rank[k]]
        if v in target.rank:
            assert v is target.vertices[target.rank[v]]


@SETTINGS
@given(map_tables())
def test_map_reader_agrees_with_freezing_reader(case):
    source, target, rows = case
    try:
        (new_s, keys), (new_t, values) = read_complex(source), read_complex(target)
    except ParseError:
        assume(False)
    old_s, old_t = frozen_complex_from_doc(source), frozen_complex_from_doc(target)
    new, new_exc = outcome(map_table_from_doc, rows, keys, values)
    old, old_exc = outcome(frozen_map_table, rows, old_s.vertices,
                           old_t.vertices)
    if new_exc or old_exc:
        same_failure(new_exc, old_exc)
        return
    assert new == old
    assert repr(list(new.items())) == repr(list(old.items()))
    assert_own_objects(new, new_s, new_t)
    assert_own_objects(old, old_s, old_t)


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """The chain of ``sc --r 2`` on the edge and the homotopy of the
    circle's ``cc --plain --mode upper`` piece 0, as written by the CLI."""
    d = tmp_path_factory.mktemp("certificates")
    (d / "edge.json").write_text(json.dumps(
        {"vertices": ["a", "b"], "facets": [["a", "b"]]}))
    (d / "circle.json").write_text(json.dumps(
        {"elements": ["a", "b", "c", "d"],
         "relations": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]}))
    assert main(["sc", "--r", "2", "--input", str(d / "edge.json"),
                 "--cert-dir", str(d / "sc"), "--output",
                 str(d / "sc.json")]) == 0
    assert main(["cc", "--plain", "--mode", "upper", "--input",
                 str(d / "circle.json"), "--cert-dir", str(d / "cc"),
                 "--output", str(d / "cc.json")]) == 0
    return {
        "chain": json.loads((d / "sc" / "sc_sigma-piece0.cert.json")
                            .read_text()),
        "homotopy": json.loads((d / "cc" / "cc_plain-piece0.cert.json")
                               .read_text()),
    }


def test_map_tables_of_a_deep_chain_agree(certificates):
    doc = certificates["chain"]
    (source, keys), (target, values) = (read_complex(doc["source"]),
                                        read_complex(doc["target"]))
    old_s = frozen_complex_from_doc(doc["source"])
    old_t = frozen_complex_from_doc(doc["target"])
    for level in doc["levels"]:
        for rows in level:
            new = map_table_from_doc(rows, keys, values)
            assert new == frozen_map_table(rows, old_s.vertices, old_t.vertices)
            assert_own_objects(new, source, base_of(target))
    repeated = doc["levels"][0][0] + doc["levels"][0][0][:1]
    same_failure(
        outcome(map_table_from_doc, repeated, keys, values)[1],
        outcome(frozen_map_table, repeated, old_s.vertices,
                old_t.vertices)[1],
    )


def test_homotopy_tables_agree(certificates):
    doc = copy.deepcopy(certificates["homotopy"])
    H = certificate_from_doc(doc)
    Q = frozen_poset_from_doc(doc["source"])
    P = frozen_poset_from_doc(doc["target"])
    assert H.table == frozen_homotopy_table(doc["table"], Q.elements,
                                            P.elements)
    doc["table"].append(copy.deepcopy(doc["table"][3]))
    same_failure(
        outcome(certificate_from_doc, doc)[1],
        outcome(frozen_homotopy_table, doc["table"], Q.elements,
                P.elements)[1],
    )


def test_homotopy_rows_out_of_order_read_the_same(certificates):
    doc = copy.deepcopy(certificates["homotopy"])
    H = certificate_from_doc(doc)
    doc["table"].reverse()
    doc["source"]["elements"].reverse()
    again = certificate_from_doc(doc)
    assert again.table == H.table
    for x, _ in again.table:
        assert x is again.source.elements[again.source.index[x]]


# -- string-shaped documents ------------------------------------------------


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


CHAIN_EDITS = {
    "source vertices": _set(["source", "vertices"], "ab"),
    "source facets": _set(["source", "facets"], "ab"),
    "a source facet": _set(["source", "facets", 0], "ab"),
    "target vertices": _set(["target", "vertices"], "ab"),
    "target facets": _set(["target", "facets"], "ab"),
    "a target facet": _set(["target", "facets", 0], "ab"),
    "target order": _set(["target", "order"], "ab"),
    "a target order pair": _set(["target", "order", 0], "ab"),
    "levels": _set(["levels"], "ab"),
    "a level": _set(["levels", 0], "ab"),
    "a map": _set(["levels", 0, 0], "ab"),
    "a map row": _set(["levels", 0, 0, 0], "ab"),
}
HOMOTOPY_EDITS = {
    "source elements": _set(["source", "elements"], "ab"),
    "source relations": _set(["source", "relations"], "ab"),
    "a source relation": _set(["source", "relations", 0], "ab"),
    "target elements": _set(["target", "elements"], "abcd"),
    "target relations": _set(["target", "relations"], "ac"),
    "a target relation": _set(["target", "relations", 0], "ac"),
    "table": _set(["table"], "abc"),
    "a table row": _set(["table", 0], "abc"),
}
SECTION_EDITS = {
    "points": _set(["points"], "0"),
    "paths": _set(["paths"], "ab"),
    "a path row": _set(["paths", 0], "ab"),
    "a path's values": _set(["paths", 0, 1], "abcdefgh"),
}


def _edited(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


def _one_line_parse_error(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "must be a JSON array" in captured.err


@pytest.mark.parametrize("field", sorted(CHAIN_EDITS))
def test_string_shaped_chain_field_exits_4(field, certificates, tmp_path,
                                           capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(
        _edited(certificates["chain"], CHAIN_EDITS[field])))
    _one_line_parse_error(["check-certificate", "--input", str(path)], capsys)


@pytest.mark.parametrize("field", sorted(HOMOTOPY_EDITS))
def test_string_shaped_homotopy_field_exits_4(field, certificates, tmp_path,
                                              capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(
        _edited(certificates["homotopy"], HOMOTOPY_EDITS[field])))
    _one_line_parse_error(["check-certificate", "--input", str(path)], capsys)


@pytest.mark.parametrize("field", sorted(SECTION_EDITS))
def test_string_shaped_section_field_is_a_parse_error(field, certificates):
    S = section_from_homotopy(certificate_from_doc(certificates["homotopy"]))
    doc = _edited(parsed(S.to_doc()), SECTION_EDITS[field])
    with pytest.raises(ParseError, match="must be a JSON array"):
        certificate_from_doc(doc)


INPUTS = {
    "sc vertices": ("sc", {"vertices": "abc",
                           "facets": [["a", "b"], ["b", "c"], ["a", "c"]]}),
    "sc facets": ("sc", {"vertices": ["a", "b", "c"], "facets": "abc"}),
    "sc each facet": ("sc", {"vertices": ["a", "b", "c"],
                             "facets": ["ab", "bc", "ac"]}),
    "sc order": ("sc", {"vertices": ["a", "b"], "facets": [["a", "b"]],
                        "order": "ab"}),
    "sc order pair": ("sc", {"vertices": ["a", "b"], "facets": [["a", "b"]],
                             "order": ["ab"]}),
    "cc elements": ("cc", {"elements": "pqr",
                           "relations": [["p", "r"], ["q", "r"]]}),
    "cc relations": ("cc", {"elements": ["p", "q", "r"], "relations": "pr"}),
    "cc each relation": ("cc", {"elements": ["p", "q", "r"],
                                "relations": ["pr", "qr"]}),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_string_shaped_input_exits_4(name, tmp_path, capsys):
    command, doc = INPUTS[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    _one_line_parse_error([command, "--input", str(path)], capsys)


def test_string_labels_still_read():
    """A label may be a string; only containers must be arrays."""
    K = complex_from_doc({"vertices": ["ab", "c"], "facets": [["ab", "c"]]})
    assert K.vertices == ("ab", "c")
    assert K.is_simplex({"ab", "c"})
