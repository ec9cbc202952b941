import json
import os
import re

import pytest

from symtc.cli import main
from symtc.io import canonical_json


@pytest.fixture
def docs(tmp_path):
    d1 = tmp_path / "d1.json"
    d1.write_text(json.dumps({"vertices": ["a", "b"], "facets": [["a", "b"]]}))
    vp = tmp_path / "v.json"
    vp.write_text(
        json.dumps(
            {"elements": ["p", "q", "r"], "relations": [["p", "r"], ["q", "r"]]}
        )
    )
    circle = tmp_path / "circle.json"
    circle.write_text(
        json.dumps(
            {
                "elements": ["a", "b", "c", "d"],
                "relations": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],
            }
        )
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a"], "facets": [["a", "z"]]}))
    return tmp_path


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_sd(docs, capsys):
    code, doc = run(["sd", "--input", str(docs / "d1.json")], capsys)
    assert code == 0
    assert len(doc["result"]["vertices"]) == 3


def test_sd_iterations(docs, capsys):
    code, doc = run(
        ["sd", "--input", str(docs / "d1.json"), "--iterations", "2"], capsys
    )
    assert code == 0
    assert len(doc["result"]["vertices"]) == 5  # simplices of sd(edge)


def test_power(docs, capsys):
    code, doc = run(
        ["power", "--input", str(docs / "d1.json"), "--n", "2"], capsys
    )
    assert code == 0
    assert len(doc["result"]["vertices"]) == 4


def test_order_complex_and_face_poset(docs, capsys):
    code, doc = run(["order-complex", "--input", str(docs / "v.json")], capsys)
    assert code == 0
    assert sorted(map(tuple, doc["result"]["facets"])) == [
        ("p", "r"),
        ("q", "r"),
    ]
    code, doc = run(["face-poset", "--input", str(docs / "d1.json")], capsys)
    assert code == 0
    assert len(doc["result"]["elements"]) == 3


def test_orbits(docs, capsys):
    code, doc = run(
        ["orbits", "--input", str(docs / "d1.json"), "--n", "2"], capsys
    )
    assert code == 0
    assert [["a", "a"]] in doc["result"]


def test_sym_contiguous_yes(docs, capsys, tmp_path):
    code, doc = run(
        [
            "sym-contiguous",
            "--input", str(docs / "d1.json"),
            "--n", "2",
            "--cert-dir", str(tmp_path / "certs"),
        ],
        capsys,
    )
    assert code == 0
    assert doc["result"]["status"] == "yes"
    assert doc["certificates"]


def test_homotopic_and_replay(docs, capsys, tmp_path):
    cert_dir = tmp_path / "certs"
    code, doc = run(
        [
            "homotopic",
            "--input", str(docs / "v.json"),
            "--n", "2",
            "--mode", "auto",
            "--cert-dir", str(cert_dir),
        ],
        capsys,
    )
    assert code == 0
    cert = doc["certificates"][0]
    code, doc = run(["check-certificate", "--input", cert], capsys)
    assert code == 0
    assert doc["result"]["valid"]


def test_replay_truncated_certificate(docs, capsys, tmp_path):
    cert_dir = tmp_path / "certs"
    run(
        [
            "homotopic", "--input", str(docs / "v.json"), "--n", "2",
            "--mode", "auto", "--cert-dir", str(cert_dir),
        ],
        capsys,
    )
    path = cert_dir / "homotopy.cert.json"
    doc = json.loads(path.read_text())
    doc["table"] = doc["table"][:-3]  # drop entries
    path.write_text(json.dumps(doc))
    code = main(["check-certificate", "--input", str(path)])
    capsys.readouterr()
    assert code == 4


def test_check_certificate_rejects_noninvariant_source(capsys, tmp_path):
    """A symmetric chain over a source the swap moves is invalid, not a crash."""
    f = [[[0, 1], 0], [[1, 1], 1]]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "type": "contiguity_chain", "n": 2, "depth": 0, "symmetric": True,
        "source": {"vertices": [[0, 1], [1, 1]], "facets": [[[0, 1], [1, 1]]]},
        "target": {"vertices": [0, 1], "facets": [[0, 1]]},
        "levels": [[f, f]],
    }))
    code, doc = run(["check-certificate", "--input", str(path)], capsys)
    assert code == 4
    assert doc["result"]["valid"] is False
    assert doc["result"]["failures"] == [
        "source is not invariant: (0, 1) -> (1, 0)"
    ]


def test_cc_run_and_exit_codes(docs, capsys, tmp_path):
    code, doc = run(
        [
            "cc", "--input", str(docs / "v.json"), "--n", "2", "--r", "0",
            "--cert-dir", str(tmp_path / "c1"),
        ],
        capsys,
    )
    assert code == 0
    assert doc["result"]["value"] == 1
    # the circle model is infeasible at r=0 in the symmetric mode
    code, doc = run(
        [
            "cc", "--input", str(docs / "circle.json"), "--n", "2",
            "--cert-dir", str(tmp_path / "c2"),
        ],
        capsys,
    )
    assert code == 2
    assert doc["result"]["value"] == "infinity"


def test_cc_upper_at_r1_on_the_circle(docs, capsys, tmp_path):
    """At r = 1 the search on the circle's whole space overruns the node
    budget; the cover refutes the whole space by homology instead and
    finishes, and its first piece's certificate passes the checker."""
    cert_dir = tmp_path / "certs-r1"
    code, doc = run(
        [
            "cc", "--input", str(docs / "circle.json"), "--r", "1",
            "--mode", "upper", "--cert-dir", str(cert_dir),
        ],
        capsys,
    )
    assert code == 0
    assert doc["result"]["upper"] == 3
    assert doc["result"]["stats"]["whole_record"]["stage"] in (
        "obstruction", "quotient")
    code, doc = run(
        ["check-certificate", "--input",
         str(cert_dir / "cc_sigma-piece0.cert.json")],
        capsys,
    )
    assert code == 0 and doc["result"]["valid"] is True


def test_sc_run(docs, capsys, tmp_path):
    code, doc = run(
        [
            "sc", "--input", str(docs / "d1.json"), "--n", "2", "--r", "0",
            "--mode", "exact", "--cert-dir", str(tmp_path / "sc"),
        ],
        capsys,
    )
    assert code == 0
    assert doc["result"]["value"] == 1


def test_sc_exact_hollow_triangle(tmp_path, capsys):
    """The exact symmetric cover of the hollow triangle finishes inside the
    default budgets."""
    path = tmp_path / "hollow.json"
    path.write_text(json.dumps(
        {"vertices": ["a", "b", "c"],
         "facets": [["a", "b"], ["b", "c"], ["a", "c"]]}
    ))
    code, doc = run(
        ["sc", "--input", str(path), "--mode", "exact",
         "--cert-dir", str(tmp_path / "sc")],
        capsys,
    )
    assert code == 0
    assert (doc["result"]["kind"], doc["result"]["value"]) == ("exact", 3)


def test_sc_mixed_labels(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(
        {"vertices": [0, 1, "a"], "facets": [[0, 1], [1, "a"], [0, "a"]]}
    ))
    code, doc = run(
        ["sc", "--input", str(path), "--n", "2", "--r", "0",
         "--mode", "upper", "--cert-dir", str(tmp_path / "sc")],
        capsys,
    )
    assert code == 0
    assert doc["result"]["upper"] == 3


def test_tc_finite(docs, capsys):
    code, doc = run(["tc-finite", "--input", str(docs / "v.json")], capsys)
    assert code == 0
    assert doc["result"]["routes_agree"]


def test_tc_finite_routes_agree_on_infinite(tmp_path, capsys):
    """0, 1, 2 < 3 and 0, 1 < 4: both routes answer infinite, the section
    route by skipping the pieces above a bad one, where deciding them
    overran its map budget."""
    path = tmp_path / "five.json"
    path.write_text(json.dumps({
        "elements": [0, 1, 2, 3, 4],
        "relations": [[0, 3], [1, 3], [2, 3], [0, 4], [1, 4]],
    }))
    code, doc = run(["tc-finite", "--input", str(path)], capsys)
    assert code == 2
    assert doc["result"]["routes_agree"]


def test_stabilize(docs, capsys):
    code, doc = run(
        [
            "stabilize", "--input", str(docs / "d1.json"),
            "--invariant", "sc-sigma", "--max-r", "1",
        ],
        capsys,
    )
    assert code == 0
    assert doc["result"]["min"] == 1
    assert [row["value"] for row in doc["result"]["per_r"]] == [1, 1]


def test_stabilize_infinite_minimum_exit_code(docs, capsys):
    """An infinite running minimum exits 2, as sc and cc do."""
    code, doc = run(
        ["stabilize", "--input", str(docs / "circle.json"),
         "--invariant", "cc-sigma", "--max-r", "0"],
        capsys,
    )
    assert code == 2
    assert doc["result"]["min"] == "infinity"


def _fails_in_one_line(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1


def test_output_under_a_missing_directory_exit_code(docs, capsys):
    _fails_in_one_line(
        ["sd", "--input", str(docs / "d1.json"),
         "--output", str(docs / "missing" / "out.json")],
        capsys,
    )


def test_cert_dir_naming_a_file_exit_code(docs, capsys):
    _fails_in_one_line(
        ["sc", "--input", str(docs / "d1.json"),
         "--cert-dir", str(docs / "d1.json")],
        capsys,
    )


@pytest.mark.parametrize("doc", [3, 2.5, True, None])
def test_orbits_on_a_scalar_document_exit_code(tmp_path, capsys, doc):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(doc))
    _fails_in_one_line(["orbits", "--input", str(path)], capsys)


@pytest.mark.parametrize("name", ["d1.json", "circle.json"])
def test_orbits_reads_its_input_once(docs, capsys, monkeypatch, name):
    """The document that tells a poset from a complex is the one built."""
    import symtc.io

    reads = []

    def counting_open(path, *args, **kwargs):
        reads.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(symtc.io, "open", counting_open, raising=False)
    code, doc = run(["orbits", "--input", str(docs / name), "--n", "2"],
                    capsys)
    assert code == 0 and doc["result"]
    assert reads == [str(docs / name)]


def test_parse_error_exit_code(docs, capsys):
    code = main(["sc", "--input", str(docs / "bad.json")])
    capsys.readouterr()
    assert code == 4


def test_non_utf8_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00{}")
    code = main(["sc", "--input", str(bad)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "UTF-8" in captured.err


@pytest.mark.parametrize("mode", ["auto", "bounded"])
@pytest.mark.parametrize("command", [
    ["sc", "--input", "d1.json"],
    ["cc", "--input", "v.json"],
    ["stabilize", "--input", "d1.json", "--invariant", "sc-sigma"],
])
def test_cover_rejects_search_modes(docs, capsys, command, mode):
    """sc, cc and stabilize compute covers: only exact and upper apply."""
    command = [str(docs / a) if a.endswith(".json") else a for a in command]
    with pytest.raises(SystemExit) as exc:
        main(command + ["--mode", mode])
    captured = capsys.readouterr()
    assert exc.value.code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and mode in captured.err


def test_budget_exit_code(docs, capsys):
    code = main(
        ["sc", "--input", str(docs / "d1.json"), "--r", "3", "--budget", "50"]
    )
    capsys.readouterr()
    assert code == 3


def test_bridge_walk_bounded_by_the_budget(docs, tmp_path):
    """On the circle at r = 1 (96 source points, 96 constraint classes, 4
    values) the quick stage's bridge walk could backtrack through up to
    4**96 value tuples; the node budget stops it, and the exact search
    then exceeds the same budget: exit 3, not a hang."""
    import subprocess
    import sys

    import symtc

    src = os.path.dirname(os.path.dirname(symtc.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from symtc.cli import main; sys.exit(main())",
         "homotopic", "--input", str(docs / "circle.json"), "--r", "1",
         "--mode", "auto", "--cert-dir", str(tmp_path)],
        capture_output=True, text=True, check=False, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("budget exceeded: ")


def test_report_determinism(docs, capsys, tmp_path):
    """Identical config and inputs give byte-identical reports modulo timing."""
    outs = []
    for i in (1, 2):
        code, doc = run(
            [
                "cc", "--input", str(docs / "v.json"), "--n", "2",
                "--cert-dir", str(tmp_path / f"det{i}"),
            ],
            capsys,
        )
        doc.pop("timings")
        doc["certificates"] = [os.path.basename(p) for p in doc["certificates"]]
        outs.append(canonical_json(doc))
    assert outs[0] == outs[1]


def test_certificate_files_identical_across_runs(docs, capsys, tmp_path):
    paths = []
    for i in (1, 2):
        run(
            [
                "cc", "--input", str(docs / "v.json"), "--n", "2",
                "--cert-dir", str(tmp_path / f"bytes{i}"),
            ],
            capsys,
        )
        paths.append((tmp_path / f"bytes{i}" / "cc_sigma-piece0.cert.json").read_bytes())
    assert paths[0] == paths[1]


def test_seedless_flag_accepted(docs, capsys):
    code, _ = run(
        ["sd", "--input", str(docs / "d1.json"), "--seedless"], capsys
    )
    assert code == 0


def test_symtc_budget_env(docs, capsys, monkeypatch, tmp_path):
    cert_dir = str(tmp_path / "env")
    monkeypatch.setenv("SYMTC_BUDGET", "50")
    code = main(
        ["sc", "--input", str(docs / "d1.json"), "--r", "3",
         "--cert-dir", cert_dir]
    )
    capsys.readouterr()
    assert code == 3
    monkeypatch.setenv("SYMTC_BUDGET", "200000")
    code, doc = run(
        ["sc", "--input", str(docs / "d1.json"), "--r", "0",
         "--cert-dir", cert_dir],
        capsys,
    )
    assert code == 0
    assert doc["config"]["budgets"]["simplices"] == 200000


@pytest.mark.parametrize("command", ["sc", "power", "orbits"])
def test_symtc_budget_env_not_an_integer(docs, capsys, monkeypatch, command):
    """A malformed SYMTC_BUDGET is a one-line invalid-input exit, never a
    traceback."""
    monkeypatch.setenv("SYMTC_BUDGET", "abc")
    code = main([command, "--input", str(docs / "d1.json")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "SYMTC_BUDGET" in captured.err and "'abc'" in captured.err


@pytest.mark.parametrize("command, doc", [
    ("cc", {"elements": ["x"], "relations": []}),
    ("sc", {"vertices": ["a", "b"], "facets": [["a", "b"]]}),
])
@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("source", ["--budget", "SYMTC_BUDGET"])
def test_budget_below_one_is_invalid(tmp_path, capsys, monkeypatch, command,
                                     doc, value, source):
    """A budget below 1, from the option or the environment, is a one-line
    invalid-input exit that names the value."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    args = [command, "--input", str(path)]
    if source == "--budget":
        args += ["--budget", value]
    else:
        monkeypatch.setenv("SYMTC_BUDGET", value)
    code = main(args)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert source in captured.err and f"not {value}\n" in captured.err


def test_check_certificate_failures_ignore_hash_seed(tmp_path):
    """A chain that fails on many simplices lists its failures in the same
    order whatever the interpreter's string hash seed."""
    import subprocess
    import sys

    import symtc

    names = [f"v{i}" for i in range(4)]
    cycle = [[names[i], names[(i + 1) % 4]] for i in range(4)]
    alternate = [[v, "ab"[i % 2]] for i, v in enumerate(names)]
    shifted = [[v, "ab"[(i + 1) % 2]] for i, v in enumerate(names)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "type": "contiguity_chain", "n": 2, "depth": 0, "symmetric": False,
        "source": {"vertices": names, "facets": cycle},
        "target": {"vertices": ["a", "b"], "facets": [["a"], ["b"]]},
        "levels": [[alternate, alternate], [shifted, shifted]],
    }))
    src = os.path.dirname(os.path.dirname(symtc.__file__))
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from symtc.cli import main; sys.exit(main())",
             "check-certificate", "--input", str(path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 4, proc.stderr
        outputs.append(proc.stdout)
    # 4 edges x 4 maps not simplicial, 8 simplices x 2 branches not contiguous
    assert len(json.loads(outputs[0])["result"]["failures"]) == 32
    assert outputs[1:] == outputs[:1] * 2


def _check_one_line_rejection(path, capsys):
    code = main(["check-certificate", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")
    assert captured.err.count("\n") == 1


def test_check_certificate_rejects_object_in_chain_map(capsys, tmp_path):
    """A JSON object as a map value is a parse error, not a crash."""
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "type": "contiguity_chain", "n": 2, "depth": 0, "symmetric": False,
        "source": {"vertices": ["a"], "facets": [["a"]]},
        "target": {"vertices": ["x"], "facets": [["x"]]},
        "levels": [[[["a", {}]], [["a", {}]]]],
    }))
    _check_one_line_rejection(path, capsys)


def _homotopy_doc(docs, capsys, tmp_path):
    cert_dir = tmp_path / "certs"
    run(
        [
            "homotopic", "--input", str(docs / "v.json"), "--n", "2",
            "--mode", "auto", "--cert-dir", str(cert_dir),
        ],
        capsys,
    )
    return json.loads((cert_dir / "homotopy.cert.json").read_text())


def test_check_certificate_rejects_object_in_homotopy_table(
    docs, capsys, tmp_path
):
    doc = _homotopy_doc(docs, capsys, tmp_path)
    doc["table"][0][2] = {"p": 1}
    path = tmp_path / "homotopy.json"
    path.write_text(json.dumps(doc))
    _check_one_line_rejection(path, capsys)


def test_check_certificate_rejects_object_in_section_path(
    docs, capsys, tmp_path
):
    from symtc.translate import section_from_homotopy
    from symtc.witnesses import certificate_from_doc

    H = certificate_from_doc(_homotopy_doc(docs, capsys, tmp_path))
    doc = section_from_homotopy(H).to_doc()
    doc["paths"][0][1][0] = {}
    path = tmp_path / "section.json"
    path.write_text(json.dumps(doc))
    _check_one_line_rejection(path, capsys)


@pytest.mark.parametrize("kind", ["chain", "homotopy", "section"])
def test_check_certificate_rejects_repeated_key(kind, capsys, tmp_path,
                                                request):
    """A certificate listing a map key, homotopy cell or path key twice is
    a one-line exit 4, not a silently dropped row."""
    from test_verify import REPEATS

    make, fixture, _ = REPEATS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(make(request.getfixturevalue(fixture))))
    _check_one_line_rejection(path, capsys)


@pytest.mark.parametrize("command", [
    ["sc", "--input", "d1.json", "--r", "-1"],
    ["cc", "--input", "v.json", "--r", "-2"],
    ["sym-contiguous", "--input", "d1.json", "--r", "-1"],
    ["homotopic", "--input", "v.json", "--r", "-1"],
    ["orbits", "--input", "d1.json", "--r", "-1"],
    ["sd", "--input", "d1.json", "--iterations", "-1"],
    ["stabilize", "--input", "d1.json", "--invariant", "sc-sigma",
     "--max-r", "-1"],
])
def test_negative_depth_exit_code(docs, capsys, command):
    """A negative subdivision depth is refused, not read as level 0."""
    command = [str(docs / a) if a.endswith(".json") else a for a in command]
    code = main(command)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "at least 0" in captured.err


@pytest.mark.parametrize("command, needle", [
    (["stabilize", "--input", "d1.json"], "--invariant"),
    (["sc", "--input", "d1.json", "--mode", "fastest"], "--mode"),
    # a flag the command does not read, or a mode it does not run
    (["tc-finite", "--input", "v.json", "--plain"], "--plain"),
    (["tc-finite", "--input", "v.json", "--r", "1"], "--r"),
    (["tc-finite", "--input", "v.json", "--mode", "upper"], "--mode"),
    (["tc-finite", "--input", "v.json", "--cert-dir", "certs"], "--cert-dir"),
    (["sym-contiguous", "--input", "d1.json", "--mode", "upper"], "--mode"),
    (["sym-contiguous", "--input", "d1.json", "--max-r", "2"], "--max-r"),
    (["homotopic", "--input", "v.json", "--mode", "upper"], "--mode"),
    (["homotopic", "--input", "v.json", "--iterations", "1"], "--iterations"),
    (["sc", "--input", "d1.json", "--max-r", "2"], "--max-r"),
    (["cc", "--input", "v.json", "--max-r", "1"], "--max-r"),
    (["stabilize", "--input", "d1.json", "--invariant", "sc-sigma",
      "--plain"], "--plain"),
    (["stabilize", "--input", "d1.json", "--invariant", "sc-sigma",
      "--r", "1"], "--r"),
    (["sd", "--input", "d1.json", "--n", "3"], "--n"),
    (["sd", "--input", "d1.json", "--budget", "5"], "--budget"),
    (["power", "--input", "d1.json", "--r", "1"], "--r"),
    (["orbits", "--input", "d1.json", "--plain"], "--plain"),
    (["order-complex", "--input", "v.json", "--n", "2"], "--n"),
    (["face-poset", "--input", "d1.json", "--mode", "exact"], "--mode"),
    (["check-certificate", "--input", "d1.json", "--budget", "5"], "--budget"),
])
def test_usage_error_exit_code(docs, capsys, command, needle):
    """Usage errors exit 4 with one line; exit 2 means infeasible.  A flag
    the command does not read is one, not echoed and ignored."""
    command = [str(docs / a) if a.endswith(".json") else a for a in command]
    with pytest.raises(SystemExit) as exc:
        main(command)
    captured = capsys.readouterr()
    assert exc.value.code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and needle in captured.err


# per command: an invocation, and the options it reads besides --input,
# --output, --seedless and --verbose
_DECIDE = ["--cert-dir", "--n", "--r", "--mode", "--plain", "--budget"]
ACCEPTED = {
    "sd": (["--input", "d1.json"], ["--r", "--iterations"]),
    "power": (["--input", "d1.json"], ["--n", "--budget"]),
    "order-complex": (["--input", "v.json"], []),
    "face-poset": (["--input", "d1.json"], []),
    "orbits": (["--input", "d1.json"], ["--n", "--r", "--budget"]),
    "sym-contiguous": (["--input", "d1.json"], _DECIDE),
    "homotopic": (["--input", "v.json"], _DECIDE),
    "check-certificate": (["--input", "certs/homotopy.cert.json"], []),
    "sc": (["--input", "d1.json"], _DECIDE),
    "cc": (["--input", "v.json"], _DECIDE),
    "tc-finite": (["--input", "v.json"], ["--n", "--budget"]),
    "stabilize": (["--input", "d1.json", "--invariant", "sc-sigma"],
                  ["--n", "--max-r", "--mode", "--invariant", "--budget"]),
}
# the report key of each option; --cert-dir only says where files go
ECHO = {"--r": "r", "--iterations": "r", "--n": "n", "--max-r": "max_r",
        "--mode": "mode", "--plain": "plain", "--invariant": "invariant",
        "--budget": "budgets"}


@pytest.mark.parametrize("command", sorted(ACCEPTED))
def test_command_takes_and_echoes_only_its_options(command, docs, capsys):
    """--help lists exactly the options the command reads, and the report's
    config echoes exactly those (with the effective budgets for --budget)."""
    args, options = ACCEPTED[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    common = {"--help", "--input", "--output", "--seedless", "--verbose"}
    assert listed == common | set(options)

    cert_dir = docs / "certs"
    run(["homotopic", "--input", str(docs / "v.json"),
         "--cert-dir", str(cert_dir)], capsys)
    args = [str(docs / a) if a.endswith(".json") else a for a in args]
    extra = ["--cert-dir", str(cert_dir)] if "--cert-dir" in options else []
    code, doc = run([command, *args, *extra], capsys)
    assert code == 0
    keys = {"command", "input"} | {ECHO[o] for o in options if o in ECHO}
    assert set(doc["config"]) == keys


@pytest.mark.parametrize("command, doc", [
    ("cc", {"elements": [], "relations": []}),
    ("tc-finite", {"elements": [], "relations": []}),
    ("orbits", {"elements": [], "relations": []}),
    ("sc", {"vertices": [], "facets": []}),
    ("power", {"vertices": [], "facets": []}),
    ("orbits", {"vertices": [], "facets": []}),
])
def test_empty_input_exit_code(tmp_path, capsys, command, doc):
    """An empty poset or complex has no power to work on: one line, exit 4,
    not a traceback."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1


@pytest.fixture(scope="module")
def hollow_chains(tmp_path_factory):
    """The piece-0 chains that ``sc --mode upper`` writes for the hollow
    triangle, symmetric (False) and plain (True); each validates as
    written."""
    root = tmp_path_factory.mktemp("hollow")
    src = root / "hollow.json"
    src.write_text(json.dumps({"vertices": ["a", "b", "c"],
                               "facets": [["a", "b"], ["b", "c"], ["a", "c"]]}))
    chains = {}
    for plain in (False, True):
        certs = root / f"certs-{plain}"
        assert main(["sc", "--mode", "upper", "--input", str(src),
                     "--output", str(root / "report.json"),
                     "--cert-dir", str(certs)]
                    + (["--plain"] if plain else [])) == 0
        path = next(certs.glob("*-piece0.cert.json"))
        assert main(["check-certificate", "--input", str(path),
                     "--output", str(root / "check.json")]) == 0
        chains[plain] = json.loads(path.read_text())
    return chains


@pytest.mark.parametrize("plain, field, value", [
    (False, "n", 2.9),
    (False, "n", "2"),
    (False, "depth", -1),
    (False, "depth", True),
    (True, "symmetric", "false"),
])
def test_check_certificate_rejects_malformed_header(
        hollow_chains, tmp_path, capsys, plain, field, value):
    """A header field that is not a JSON integer in range, or not a JSON
    boolean, is refused as it is read, not coerced: one line naming the
    field, exit 4."""
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(dict(hollow_chains[plain], **{field: value})))
    code = main(["check-certificate", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"{field!r}" in captured.err


@pytest.fixture(scope="module")
def circle_plain_homotopy(tmp_path_factory):
    """The piece-0 homotopy that ``cc --plain --mode upper`` writes for the
    circle; it validates as written."""
    root = tmp_path_factory.mktemp("circle")
    src = root / "circle.json"
    src.write_text(json.dumps({
        "elements": ["a", "b", "c", "d"],
        "relations": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],
    }))
    certs = root / "certs"
    assert main(["cc", "--plain", "--mode", "upper", "--input", str(src),
                 "--output", str(root / "report.json"),
                 "--cert-dir", str(certs)]) == 0
    path = certs / "cc_plain-piece0.cert.json"
    assert main(["check-certificate", "--input", str(path),
                 "--output", str(root / "check.json")]) == 0
    return json.loads(path.read_text())


# each rewrite keeps what int() and == 0 would read: [1.0, j] and [1.5, j]
# as (1, j), ["1", j] as (1, j), [true, j] as (1, j), false and 0.0 as the
# basepoint
FENCE_POINT_REWRITES = {
    "l float": lambda t: t if t == 0 else [1.0 * t[0], t[1]],
    "l fraction": lambda t: t if t == 0 else [t[0] + 0.5, t[1]],
    "l string": lambda t: t if t == 0 else [str(t[0]), t[1]],
    "l true": lambda t: t if t == 0 or t[0] != 1 else [True, t[1]],
    "basepoint false": lambda t: False if t == 0 else t,
    "basepoint float": lambda t: 0.0 if t == 0 else t,
}


def _rewrite_fence_points(doc, kind, rewrite):
    """The homotopy's table rows, or its section's point list, with every
    fence point rewritten."""
    if kind == "homotopy":
        doc = dict(doc, table=[[x, rewrite(t), v] for x, t, v in doc["table"]])
    else:
        from symtc.translate import section_from_homotopy
        from symtc.witnesses import certificate_from_doc

        doc = section_from_homotopy(certificate_from_doc(doc)).to_doc()
        doc["points"] = [rewrite(t) for t in doc["points"]]
    return doc


@pytest.mark.parametrize("kind", ["homotopy", "section"])
@pytest.mark.parametrize("rewrite", sorted(FENCE_POINT_REWRITES))
def test_check_certificate_rejects_coerced_fence_point(
        circle_plain_homotopy, tmp_path, capsys, kind, rewrite):
    """A fence point is the JSON integer 0 or a pair of JSON integers
    >= 1; anything else is refused as it is read, not coerced: one line
    naming the point, exit 4."""
    doc = _rewrite_fence_points(circle_plain_homotopy, kind,
                                FENCE_POINT_REWRITES[rewrite])
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    code = main(["check-certificate", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "fence point" in captured.err
