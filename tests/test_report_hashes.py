"""Canonical report bytes, pinned by their sha256.

``data/report_hashes.json`` holds the sha256 of ``canonical_json(to_doc())``
for six covers over the conftest complexes and posets: three deep towers,
the hollow triangle's upper cover, and two covers whose certificates are
combinatorial homotopies (the circle model's plain upper cover, and the
symmetric cover of the V poset at r = 1).  A change of representation
inside the package must leave every byte of these reports as it was.
"""

import hashlib
import json
from pathlib import Path

import pytest

from symtc.complexity import cc_plain, cc_sigma, sc_plain, sc_sigma
from symtc.io import canonical_json

HASHES = json.loads(
    (Path(__file__).parent / "data" / "report_hashes.json").read_text()
)

CASES = {
    "sc_sigma(edge,2,3)": (sc_sigma, "edge", {"n": 2, "r": 3}),
    "sc_plain(triangle,2,1)": (sc_plain, "triangle", {"n": 2, "r": 1}),
    "sc_sigma(edge,3,1)": (sc_sigma, "edge", {"n": 3, "r": 1}),
    "sc_sigma(hollow_triangle,2,0,upper)": (
        sc_sigma, "hollow_triangle", {"n": 2, "r": 0, "mode": "upper"}),
    "cc_plain(circle_poset,2,0,upper)": (
        cc_plain, "circle_poset", {"n": 2, "r": 0, "mode": "upper"}),
    "cc_sigma(v_poset,2,1)": (cc_sigma, "v_poset", {"n": 2, "r": 1}),
}


def test_every_pinned_case_runs():
    assert sorted(CASES) == sorted(HASHES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name, request):
    fn, fixture, kwargs = CASES[name]
    res = fn(request.getfixturevalue(fixture), **kwargs)
    report = canonical_json(res.to_doc()).encode()
    assert hashlib.sha256(report).hexdigest() == HASHES[name]
