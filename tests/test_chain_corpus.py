"""Corrupted contiguity chains: every mutant is rejected, with a fixed list.

``data/chain_corpus.json`` holds the chain certificates of the three pieces
of ``sc_sigma(hollow triangle, 2, 0, mode="upper")`` and of the one piece of
``sc_sigma(edge, 2, 1)``, as written by ``to_doc``, and the failure list the
name-based checker gave on each mutant below.  Each mutation edits the
document: a changed value, a dropped vertex, a vertex sent outside the
target, a broken diagonal, a broken equivariance, and a final level that is
not the projection the certificate claims.  Through ``check-certificate``
every mutant exits 4 with the same list.  A key outside the source, added to
every map, is rejected too, with one failure naming it.
"""

import copy
import json
from pathlib import Path

import pytest

from symtc.actions import act_name, symmetric_group
from symtc.cli import main
from symtc.util import freeze
from symtc.verify import validate
from symtc.witnesses import certificate_from_doc

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "chain_corpus.json").read_text()
)


def _middle(rows):
    return len(rows) // 2


def _next_vertex(doc, value):
    """The target vertex after ``value`` in the declared vertex list."""
    verts = doc["target"]["vertices"]
    return verts[(verts.index(value) + 1) % len(verts)]


def change_value(doc):
    row = doc["levels"][-1][0][_middle(doc["levels"][-1][0])]
    row[1] = _next_vertex(doc, row[1])


def drop_vertex(doc):
    rows = doc["levels"][0][1]
    del rows[_middle(rows)]


def send_outside(doc):
    rows = doc["levels"][-1][1]
    rows[_middle(rows)][1] = "outside"


def break_diagonal(doc):
    row = doc["levels"][0][1][_middle(doc["levels"][0][1])]
    row[1] = _next_vertex(doc, row[1])


def break_equivariance(doc):
    """Change the first level on every branch at one vertex the swap moves:
    the level stays diagonal but is no longer invariant."""
    swap = symmetric_group(doc["n"])[1]
    rows = doc["levels"][0][0]
    k = next(
        i for i in range(_middle(rows), len(rows))
        if act_name(swap, freeze(rows[i][0]), doc["depth"])
        != freeze(rows[i][0])
    )
    value = _next_vertex(doc, rows[k][1])
    for vm in doc["levels"][0]:
        vm[k][1] = value


def lie_about_projection(doc):
    """End the chain on its (diagonal) first level while still claiming the
    projection endpoints."""
    doc["levels"][-1] = copy.deepcopy(doc["levels"][0])


MUTATIONS = {
    f.__name__: f
    for f in (change_value, drop_vertex, send_outside, break_diagonal,
              break_equivariance, lie_about_projection)
}
MUTANTS = [
    (name, mutation)
    for name in sorted(CORPUS["certificates"])
    for mutation in MUTATIONS
]


def mutant(name, mutation):
    doc = copy.deepcopy(CORPUS["certificates"][name])
    MUTATIONS[mutation](doc)
    return doc


@pytest.mark.parametrize("name", sorted(CORPUS["certificates"]))
def test_corpus_certificates_validate(name):
    rep = validate(certificate_from_doc(CORPUS["certificates"][name]))
    assert rep.ok, rep.failures


@pytest.mark.parametrize("name,mutation", MUTANTS)
def test_mutant_is_rejected_with_pinned_failures(name, mutation):
    rep = validate(certificate_from_doc(mutant(name, mutation)))
    assert not rep.ok
    assert rep.failures == CORPUS["failures"][name][mutation]


def test_every_mutant_exits_4_through_the_cli(tmp_path, capsys):
    for name, mutation in MUTANTS:
        path = tmp_path / f"{name}-{mutation}.json"
        path.write_text(json.dumps(mutant(name, mutation)))
        code = main(["check-certificate", "--input", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 4, (name, mutation)
        assert report["result"]["valid"] is False
        assert report["result"]["failures"] == (
            CORPUS["failures"][name][mutation]
        )


def extra_key(doc):
    """Every map also sends a name outside the source into the target."""
    value = doc["target"]["vertices"][0]
    for level in doc["levels"]:
        for rows in level:
            rows.append([["z", "z"], value])


@pytest.mark.parametrize("name", sorted(CORPUS["certificates"]))
def test_key_outside_the_source_exits_4_through_the_cli(name, tmp_path,
                                                        capsys):
    doc = copy.deepcopy(CORPUS["certificates"][name])
    extra_key(doc)
    path = tmp_path / f"{name}-extra-key.json"
    path.write_text(json.dumps(doc))
    code = main(["check-certificate", "--input", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 4
    assert report["result"]["failures"] == [
        "level 0 map 1 has key ('z', 'z') outside the source"
    ]
