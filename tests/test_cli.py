"""CLI surface: exit codes, file formats, determinism."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import starstring
from starstring import inverse_center as ic
from starstring.cli import main
from starstring.model import Edge, StarGraph

EX_SPECTRA = {
    "neumann_squared": [
        {"value": "0.5", "mult": 1},
        {"value": "3/2", "mult": 1},
        {"value": "2", "mult": 1},
    ],
    "dirichlet_squared": [
        {"value": "1", "mult": 1},
        {"value": "2", "mult": 2},
    ],
}

EX_GRAPH = {
    "root": "pendant",
    "central_mass": "0",
    "main_edge": {"lengths": ["1", "1"], "masses": ["1"]},
    "edges": [
        {"lengths": ["2/3", "4/3"], "masses": ["9/8"]},
        {"lengths": ["2/3", "1/3"], "masses": ["9/4"]},
    ],
}


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def ex_files(tmp_path):
    spectra = write(tmp_path / "spectra.json", EX_SPECTRA)
    plan = write(tmp_path / "plan.json", {"residue_split": {"2": ["2/3", "1/3"]}})
    return tmp_path, spectra, plan


def test_inverse_pendant_golden(ex_files):
    tmp, spectra, plan = ex_files
    out = tmp / "graph.json"
    code = main([
        "inverse-pendant", "--spectra", spectra, "--main-length", "2",
        "--lengths", "2,1", "--plan", plan, "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text()) == EX_GRAPH
    details = json.loads((tmp / "graph.plan.json").read_text())
    assert details["gamma"] == "8/3"
    assert details["cf"] == {"a": ["1", "4/3", "1/3"], "b": ["1", "3"]}


def test_forward_golden(ex_files, tmp_path):
    graph = write(tmp_path / "g.json", EX_GRAPH)
    out = tmp_path / "spectra_out.json"
    code = main(["forward", "--graph", graph, "--out", str(out)])
    assert code == 0
    got = json.loads(out.read_text())
    assert got == {
        "neumann_squared": [
            {"value": "1/2", "mult": 1},
            {"value": "3/2", "mult": 1},
            {"value": "2", "mult": 1},
        ],
        "dirichlet_squared": [
            {"value": "1", "mult": 1},
            {"value": "2", "mult": 2},
        ],
    }


def test_forward_deterministic(ex_files, tmp_path):
    graph = write(tmp_path / "g.json", EX_GRAPH)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["forward", "--graph", graph, "--out", str(out1)]) == 0
    assert main(["forward", "--graph", graph, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_forward_emit_polys(ex_files, tmp_path):
    graph = write(tmp_path / "g.json", EX_GRAPH)
    out = tmp_path / "s.json"
    assert main(["forward", "--graph", graph, "--out", str(out), "--emit-polys"]) == 0
    polys = json.loads((tmp_path / "s.polys.json").read_text())
    assert set(polys) == {"phi_neumann", "phi_dirichlet"}


def test_forward_irrational_intervals(tmp_path):
    graph = write(tmp_path / "g.json", {
        "root": "center", "central_mass": "0",
        "edges": [
            {"lengths": ["1", "1", "1"], "masses": ["1", "2"]},
            {"lengths": ["1"], "masses": []},
        ],
    })
    out = tmp_path / "s.json"
    assert main(["forward", "--graph", graph, "--out", str(out),
                 "--refine-width", "1/1024"]) == 0
    got = json.loads(out.read_text())
    for entry in got["neumann_squared"]:
        assert "value" in entry or "interval" in entry


def test_inverse_center_with_enumerate(tmp_path):
    spectra = write(tmp_path / "s.json", {
        "neumann_squared": [{"value": "1", "mult": 1}, {"value": "2", "mult": 1}],
        "dirichlet_squared": [{"value": "2", "mult": 2}],
    })
    out = tmp_path / "g.json"
    code = main(["inverse-center", "--spectra", spectra, "--lengths", "2,1",
                 "--out", str(out), "--enumerate"])
    assert code == 0
    graph = json.loads(out.read_text())
    assert graph["root"] == "center"
    constraints = json.loads((tmp_path / "g.constraints.json").read_text())
    assert constraints["poles"][0]["total_residue"] == "3"
    plan = json.loads((tmp_path / "g.plan.json").read_text())
    assert plan["assignments"][0]["shares"] == ["1/2", "1/2"]


def test_validate_failure_exit_code(tmp_path):
    spectra = write(tmp_path / "bad.json", {
        "neumann_squared": [{"value": "1", "mult": 1}],
        "dirichlet_squared": [{"value": "1", "mult": 1}],
    })
    out = tmp_path / "report.json"
    code = main(["validate", "--spectra", spectra, "--root", "pendant",
                 "--main-length", "1", "--lengths", "1", "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["valid"] is False


def test_validate_success(tmp_path):
    spectra = write(tmp_path / "s.json", EX_SPECTRA)
    out = tmp_path / "report.json"
    code = main(["validate", "--spectra", spectra, "--root", "pendant",
                 "--main-length", "2", "--lengths", "2,1", "--out", str(out)])
    assert code == 0


def test_roundtrip_graph(tmp_path):
    graph = write(tmp_path / "g.json", EX_GRAPH)
    out = tmp_path / "verdict.json"
    assert main(["verify-roundtrip", "--graph", graph, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True


CENTER_GRAPHS = [
    # pairwise coprime Dirichlet factors
    ("1", [(["1", "1"], ["1"]), (["2", "1"], ["3"])]),
    # two edges share the Dirichlet value of z - 2
    ("1", [(["1", "1"], ["1"]), (["1", "1"], ["1"]), (["2", "1"], ["3"])]),
    # three edges share the irrational factor 6z^2 - 12z + 4
    ("0", [(["1", "2", "1"], ["1", "3"])] * 3),
]


def center_graph(path, central_mass, edges):
    return write(path, {
        "root": "center", "central_mass": central_mass,
        "edges": [{"lengths": lengths, "masses": masses} for lengths, masses in edges],
    })


@pytest.mark.parametrize("central_mass, edges", CENTER_GRAPHS)
def test_roundtrip_center_graph(tmp_path, central_mass, edges):
    graph = center_graph(tmp_path / "g.json", central_mass, edges)
    out = tmp_path / "verdict.json"
    assert main(["verify-roundtrip", "--graph", graph, "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())
    assert verdict["mode"] == "center" and verdict["pass"] is True


@pytest.mark.parametrize("central_mass, edges", CENTER_GRAPHS)
def test_center_roundtrip_canonicalizes_one_quotient(tmp_path, canonical_calls, central_mass, edges):
    """The quotient is reduced by what the edges share, with no general
    canonicalizer, and the rebuilt graph's polynomials are checked against
    it by cross-multiplication, not canonicalized a second time."""
    graph = center_graph(tmp_path / "g.json", central_mass, edges)
    assert main(["verify-roundtrip", "--graph", graph, "--out", str(tmp_path / "v.json")]) == 0
    assert canonical_calls["make"] == 0


def test_pendant_roundtrip_calls_no_general_canonicalizer(tmp_path, canonical_calls):
    # two non-main edges share the Dirichlet value 2
    bead = {"lengths": ["1", "1"], "masses": ["1"]}
    graph = write(tmp_path / "g.json", {"root": "pendant", "central_mass": "1",
                                        "main_edge": bead, "edges": [bead, bead]})
    out = tmp_path / "v.json"
    assert main(["verify-roundtrip", "--graph", graph, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True
    assert canonical_calls["make"] == 0


def test_center_roundtrip_fails_on_a_changed_mass(tmp_path, monkeypatch):
    """The cross-multiplied check can fail: a rebuilt graph with one mass
    doubled is reported, with exit 2."""
    real = ic.reconstruct_center_grouped

    def perturbed(psi, factors, lengths):
        graph = real(psi, factors, lengths)
        first, *rest = graph.edges
        changed = Edge(first.lengths, (2 * first.masses[0], *first.masses[1:]))
        return StarGraph(graph.root, graph.central_mass, (changed, *rest))

    monkeypatch.setattr(ic, "reconstruct_center_grouped", perturbed)
    graph = center_graph(tmp_path / "g.json", *CENTER_GRAPHS[0])
    out = tmp_path / "verdict.json"
    assert main(["verify-roundtrip", "--graph", graph, "--out", str(out)]) == 2
    assert json.loads(out.read_text()) == {
        "mode": "center", "pass": False, "detail": "canonical phi_D/phi_N compared exactly",
    }


def test_roundtrip_spectra(ex_files):
    tmp, spectra, plan = ex_files
    out = tmp / "verdict.json"
    code = main(["verify-roundtrip", "--spectra", spectra, "--root", "pendant",
                 "--main-length", "2", "--lengths", "2,1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["pass"] is True


def test_inverse_pendant_enumerate(ex_files):
    tmp, spectra, plan = ex_files
    out = tmp / "graph.json"
    code = main([
        "inverse-pendant", "--spectra", spectra, "--main-length", "2",
        "--lengths", "2,1", "--out", str(out), "--enumerate",
    ])
    assert code == 0
    constraints = json.loads((tmp / "graph.constraints.json").read_text())
    # the subgraph data is rational here, so the cross-check report is present
    assert constraints["subgraph_report"]["valid"] is True


# with --main-length 1/3 and --lengths 3,1, the subgraph quotient's poles
# are an irrational, 20 and an irrational
MIXED_SPECTRA = {
    "neumann_squared": [{"value": v, "mult": 1} for v in ("7/2", "33/2", "30")],
    "dirichlet_squared": [{"value": v, "mult": 1} for v in ("4", "19", "39")],
}


def test_inverse_pendant_enumerate_irrational_subgraph(tmp_path):
    spectra = write(tmp_path / "s.json", MIXED_SPECTRA)
    out = tmp_path / "graph.json"
    code = main([
        "inverse-pendant", "--spectra", spectra, "--main-length", "1/3",
        "--lengths", "3,1", "--out", str(out), "--enumerate",
    ])
    assert code == 0
    # the subgraph spectra are irrational, so there is no centre-root report
    assert json.loads((tmp_path / "graph.constraints.json").read_text()) == {"subgraph_report": None}


def test_matrix_command(tmp_path):
    graph = write(tmp_path / "g.json", {
        "root": "center", "central_mass": "1",
        "edges": [
            {"lengths": ["1", "1"], "masses": ["1"]},
            {"lengths": ["1", "1"], "masses": ["1"]},
        ],
    })
    out = tmp_path / "pencil.json"
    assert main(["matrix", "--graph", graph, "--out", str(out)]) == 0
    pencil = json.loads(out.read_text())
    assert pencil["dim"] == 3
    cert = json.loads((tmp_path / "pencil.certificate.json").read_text())
    assert cert["ok"] is True


def test_matrix_rejects_massless_center(tmp_path):
    graph = write(tmp_path / "g.json", {
        "root": "center", "central_mass": "0",
        "edges": [
            {"lengths": ["1", "1"], "masses": ["1"]},
            {"lengths": ["1", "1"], "masses": ["1"]},
        ],
    })
    assert main(["matrix", "--graph", graph, "--out", str(tmp_path / "p.json")]) == 1


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["forward", "--graph", str(bad), "--out", str(tmp_path / "o.json")]) == 1


def test_frequency_output(tmp_path):
    graph = write(tmp_path / "g.json", {
        "root": "center", "central_mass": "1",
        "edges": [{"lengths": ["1"], "masses": []}, {"lengths": ["1"], "masses": []}],
    })
    out = tmp_path / "f.json"
    assert main(["forward", "--graph", graph, "--out", str(out),
                 "--as-frequencies", "--digits", "4"]) == 0
    got = json.loads(out.read_text())
    assert got["approximate"] is True
    # single eigenvalue 2: frequencies -sqrt(2), sqrt(2)
    assert got["neumann_frequencies"] == ["-1.4142", "1.4142"]


@pytest.mark.parametrize("frequencies", [False, True])
def test_digits_zero_prints_the_floor(tmp_path, frequencies):
    # eigenvalues 1.618.., 5.492.. and 2, 8: an explicit --digits 0 prints
    # each floor with no decimal point; omitted, the output stays exact, or
    # 12 places with --as-frequencies
    graph = write(tmp_path / "g.json", {
        "root": "center", "central_mass": "0",
        "edges": [{"lengths": ["1/2", "1/2"], "masses": ["1/2"]},
                  {"lengths": ["1", "1/2"], "masses": ["3/2"]}],
    })
    out = tmp_path / "s.json"
    extra = ["--as-frequencies"] if frequencies else []
    assert main(["forward", "--graph", graph, "--out", str(out), "--digits", "0", *extra]) == 0
    got = json.loads(out.read_text())
    assert (got["approximate"], got["digits"]) == (True, 0)
    if frequencies:
        assert got["neumann_frequencies"] == got["dirichlet_frequencies"] == ["-2", "-1", "1", "2"]
    else:
        assert [e["value"] for e in got["neumann_squared"]] == ["1", "5"]
        assert [e["value"] for e in got["dirichlet_squared"]] == ["2", "8"]
    assert main(["forward", "--graph", graph, "--out", str(out), *extra]) == 0
    got = json.loads(out.read_text())
    if frequencies:
        assert got["digits"] == 12 and got["dirichlet_frequencies"][-1] == "2.828427124746"
    else:
        assert "approximate" not in got and got["dirichlet_squared"][1]["value"] == "8"


def test_negative_frequency_is_the_negated_floor(tmp_path):
    # frequencies +-0.63.., +-1.17.. and +-0.70.., +-1.41..: the negative
    # branch negates the positive floor, so a root in (-1, 0) prints "-0"
    graph = write(tmp_path / "g.json", {
        "root": "center", "central_mass": "0",
        "edges": [{"lengths": ["1", "1"], "masses": ["1"]},
                  {"lengths": ["2", "1"], "masses": ["3"]}],
    })
    out = tmp_path / "f.json"
    assert main(["forward", "--graph", graph, "--out", str(out),
                 "--as-frequencies", "--digits", "0"]) == 0
    got = json.loads(out.read_text())
    assert got["neumann_frequencies"] == got["dirichlet_frequencies"] == ["-1", "-0", "0", "1"]


@pytest.mark.parametrize("frequencies", [[], ["--as-frequencies"]])
def test_digits_at_the_bound_print_a_large_value(tmp_path, frequencies):
    # eigenvalues near 2e700, frequencies near 1.4e350: with 4,000 places
    # either exceeds 4,300 digits
    graph = write(tmp_path / "g.json", {
        "root": "center", "central_mass": "1",
        "edges": [{"lengths": ["1", "1"], "masses": ["1e-700"]}, {"lengths": ["1"], "masses": []}],
    })
    out = tmp_path / "f.json"
    assert main(["forward", "--graph", graph, "--out", str(out), "--digits", "4000", *frequencies]) == 0
    got = json.loads(out.read_text())
    entries = [v for vs in got.values() if isinstance(vs, list) for v in vs]
    values = [v["value"] if isinstance(v, dict) else v for v in entries]
    assert values and all(len(v.split(".")[1]) == 4000 for v in values)
    assert max(len(v) for v in values) > 4300


@pytest.mark.parametrize("frequencies", [False, True])
def test_decimal_output_is_the_exact_truncation(tmp_path, frequencies):
    # phi_N has the roots (7 +- sqrt(17))/4: an interval of the default
    # width 2^-64 fixes only about 19 of the 40 places
    sympy = pytest.importorskip("sympy")
    graph = write(tmp_path / "g.json", {
        "root": "center", "central_mass": "0",
        "edges": [{"lengths": ["1", "1", "1"], "masses": ["1", "1"]}, {"lengths": ["1"], "masses": []}],
    })
    out = tmp_path / "s.json"
    extra = ["--as-frequencies"] if frequencies else []
    assert main(["forward", "--graph", graph, "--out", str(out), "--emit-polys",
                 "--digits", "40", *extra]) == 0
    got = json.loads(out.read_text())
    polys = json.loads((tmp_path / "s.polys.json").read_text())
    z = sympy.Symbol("z")
    for key in ("neumann", "dirichlet"):
        coeffs = [sympy.Rational(c) for c in polys[f"phi_{key}"]]
        roots = sympy.real_roots(sympy.Poly(list(reversed(coeffs)), z))
        places = []
        for r in roots:
            cell = int(sympy.floor((sympy.sqrt(r) if frequencies else r) * 10 ** 40))
            places.append(f"{cell // 10 ** 40}.{cell % 10 ** 40:040}")
        if frequencies:
            assert got[f"{key}_frequencies"] == ["-" + v for v in reversed(places)] + places
        else:
            assert [e["value"] for e in got[f"{key}_squared"]] == places
            assert [e["mult"] for e in got[f"{key}_squared"]] == [1] * len(places)


BIG = 10 ** 1000
# a value just above 3 and one just above 2, each with 1,001 digits
NEAR_3, NEAR_2 = f"{3 * BIG + 1}/{BIG}", f"{2 * BIG + 15}/{BIG + 7}"


@pytest.mark.parametrize("spectra, argv", [
    ({"neumann_squared": [{"value": "1", "mult": 1}, {"value": NEAR_3, "mult": 1}],
      "dirichlet_squared": [{"value": NEAR_2, "mult": 1}]},
     ["inverse-center", "--lengths", "1,1"]),
    ({"neumann_squared": [{"value": "1", "mult": 1}, {"value": NEAR_3, "mult": 1}],
      "dirichlet_squared": [{"value": NEAR_2, "mult": 1}, {"value": "4", "mult": 1}]},
     ["inverse-pendant", "--main-length", "1/10", "--lengths", "1,1"]),
])
def test_an_answer_past_4300_digits_is_written_and_read_back(tmp_path, spectra, argv):
    # the rebuilt graph's rationals run to 6,000-8,000 digits, past CPython's
    # default int/str limit; forward reads them and gives back the spectra
    out = tmp_path / "g.json"
    assert main([*argv, "--spectra", write(tmp_path / "s.json", spectra), "--out", str(out)]) == 0
    graph = json.loads(out.read_text())
    texts = [x for e in graph["edges"] + [graph.get("main_edge", {"lengths": [], "masses": []})]
             for x in e["lengths"] + e["masses"]]
    assert max(len(t) for t in texts) > 4300
    back = tmp_path / "f.json"
    assert main(["forward", "--graph", str(out), "--out", str(back)]) == 0
    assert json.loads(back.read_text()) == spectra


def test_long_values_print_in_validation_messages(tmp_path):
    # a 5,001-digit eigenvalue breaking the chain is named in its issue
    huge = "1" + "0" * 5000
    spectra = write(tmp_path / "s.json", {
        "neumann_squared": [{"value": huge, "mult": 1}, {"value": huge + "1", "mult": 1}],
        "dirichlet_squared": [{"value": "2", "mult": 1}],
    })
    out = tmp_path / "r.json"
    assert main(["validate", "--spectra", spectra, "--lengths", "1,1", "--out", str(out)]) == 2
    issues = json.loads(out.read_text())["issues"]
    assert any(huge in i["message"] for i in issues)


def test_long_values_print_in_error_messages(tmp_path, capsys):
    # a nonpositive 5,001-digit eigenvalue is named in its E_INVARIANT
    huge = "-1" + "0" * 5000
    spectra = write(tmp_path / "s.json", {
        "neumann_squared": [{"value": huge, "mult": 1}], "dirichlet_squared": [],
    })
    assert main(["inverse-center", "--spectra", spectra, "--lengths", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "E_INVARIANT" and huge in err["message"]


def test_a_json_integer_past_the_digit_limit_is_a_schema_error(tmp_path, capsys):
    spectra = tmp_path / "s.json"
    spectra.write_text('{"neumann_squared": [{"value": "1", "mult": 1%s}], '
                       '"dirichlet_squared": []}' % ("0" * 5000))
    assert main(["validate", "--spectra", str(spectra), "--lengths", "1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "E_SCHEMA"


@pytest.mark.parametrize("flag", [
    ["--refine-width", "0"], ["--refine-width=-1/2"], ["--digits=-3"], ["--digits=4001"],
    ["--refine-width=-1" + "0" * 5000],
])
def test_forward_rejects_out_of_range_options(tmp_path, capsys, flag):
    # the graph has irrational eigenvalues, so a zero width would be refined
    graph = write(tmp_path / "g.json", {
        "root": "center", "central_mass": "0",
        "edges": [
            {"lengths": ["1", "1", "1"], "masses": ["1", "2"]},
            {"lengths": ["1"], "masses": []},
        ],
    })
    out = tmp_path / "s.json"
    assert main(["forward", "--graph", graph, "--out", str(out), *flag]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "E_RANGE"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["inverse-center", "--lengths", "0,1"],
    ["inverse-center", "--lengths=-1,1"],
    ["inverse-pendant", "--lengths", "0", "--main-length", "1"],
    ["inverse-pendant", "--lengths", "2,1", "--main-length", "0"],
    ["validate", "--lengths", "0,1"],
    ["validate", "--root", "pendant", "--lengths", "2,1", "--main-length=-2"],
    ["verify-roundtrip", "--lengths", "0,1"],
    ["verify-roundtrip", "--root", "pendant", "--lengths", "2,1", "--main-length", "0"],
])
def test_lengths_must_be_positive(ex_files, capsys, argv):
    tmp, spectra, _ = ex_files
    out = tmp / "o.json"
    assert main([*argv, "--spectra", spectra, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "E_RANGE"
    assert not out.exists()


ZERO_INTERVAL_GRAPH = {
    "root": "center", "central_mass": "0",
    "edges": [{"lengths": ["1", "0"], "masses": ["1"]}, {"lengths": ["1"], "masses": []}],
}
ZERO_MASS_GRAPH = {
    "root": "center", "central_mass": "0",
    "edges": [{"lengths": ["1", "1"], "masses": ["0"]}, {"lengths": ["1"], "masses": []}],
}
ZERO_VALUE_SPECTRA = {
    "neumann_squared": [{"value": "0", "mult": 1}, *EX_SPECTRA["neumann_squared"][1:]],
    "dirichlet_squared": EX_SPECTRA["dirichlet_squared"],
}


@pytest.mark.parametrize("name, data, argv", [
    ("graph", ZERO_INTERVAL_GRAPH, ["forward"]),
    ("graph", ZERO_MASS_GRAPH, ["forward"]),
    ("spectra", ZERO_VALUE_SPECTRA, ["inverse-center", "--lengths", "2,1"]),
], ids=["zero-interval", "zero-mass", "zero-eigenvalue"])
def test_zero_in_an_input_file_is_an_invariant_violation(tmp_path, capsys, name, data, argv):
    """A zero in a file is E_INVARIANT with exit status 2, which removes the
    stale output; the same zero in --lengths is E_RANGE with exit status 1."""
    path = write(tmp_path / f"{name}.json", data)
    out = tmp_path / "o.json"
    out.write_text("stale")
    assert main([*argv, f"--{name}", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "E_INVARIANT"
    assert not out.exists()


@pytest.mark.parametrize("lengths", ["2,,1", "2,1,", ",2"])
@pytest.mark.parametrize("argv", [
    ["inverse-center"],
    ["inverse-pendant", "--main-length", "2"],
    ["validate", "--root", "pendant", "--main-length", "2"],
    ["verify-roundtrip", "--root", "pendant", "--main-length", "2"],
])
def test_lengths_with_an_empty_entry_are_a_schema_error(ex_files, capsys, argv, lengths):
    tmp, spectra, _ = ex_files
    out = tmp / "o.json"
    assert main([*argv, "--lengths", lengths, "--spectra", spectra, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "E_SCHEMA"
    assert not out.exists()


@pytest.mark.parametrize("width", ["1e-999999999", "1/0", "abc"])
def test_forward_refine_width_is_a_parsed_rational(tmp_path, capsys, width):
    graph = write(tmp_path / "g.json", {
        "root": "center", "central_mass": "1",
        "edges": [{"lengths": ["1"], "masses": []}, {"lengths": ["1"], "masses": []}],
    })
    out = tmp_path / "s.json"
    assert main(["forward", "--graph", graph, "--out", str(out), "--refine-width", width]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "E_SCHEMA"
    assert not out.exists()


@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100000], ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("command", ["forward", "matrix"])
def test_unreadable_graph_is_a_schema_error(tmp_path, capsys, data, command):
    graph = tmp_path / "g.json"
    graph.write_bytes(data)
    assert main([command, "--graph", str(graph), "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "E_SCHEMA"


def test_unexpected_exception_is_e_internal(tmp_path, capsys, monkeypatch):
    import starstring.cli as cli

    def boom(args):
        raise ZeroDivisionError("a defect")

    monkeypatch.setattr(cli, "_cmd_forward", boom)
    graph = write(tmp_path / "g.json", EX_GRAPH)
    assert main(["forward", "--graph", graph]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0]) == {"error": "E_INTERNAL", "message": "ZeroDivisionError: a defect"}


def test_forward_without_out_prints_what_out_would_write(tmp_path, capsysbinary):
    """Without --out, stdout carries the --out file and then its .polys sibling."""
    graph = write(tmp_path / "g.json", EX_GRAPH)
    out = tmp_path / "s.json"
    assert main(["forward", "--graph", graph, "--emit-polys", "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(["forward", "--graph", graph, "--emit-polys"]) == 0
    printed = capsysbinary.readouterr().out
    assert printed == out.read_bytes() + (tmp_path / "s.polys.json").read_bytes()


def test_failing_validate_prints_its_report(tmp_path, capsysbinary):
    spectra = write(tmp_path / "bad.json", {
        "neumann_squared": [{"value": "1", "mult": 1}],
        "dirichlet_squared": [{"value": "1", "mult": 1}],
    })
    argv = ["validate", "--spectra", spectra, "--root", "pendant", "--main-length", "1",
            "--lengths", "1"]
    assert main(argv) == 2
    printed = capsysbinary.readouterr()
    assert printed.err == b"" and json.loads(printed.out)["valid"] is False
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert printed.out == out.read_bytes()


def test_a_failed_rename_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    import starstring.cli as cli

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    graph = write(tmp_path / "g.json", EX_GRAPH)
    assert main(["forward", "--graph", graph, "--out", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in err] == [
        {"error": "E_SCHEMA", "message": f"cannot write {tmp_path / 's.json'}: rename refused"}
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


def test_an_out_path_in_a_missing_directory_is_a_bad_input(tmp_path, capsys):
    graph = write(tmp_path / "g.json", EX_GRAPH)
    out = tmp_path / "no" / "such" / "dir" / "o.json"
    assert main(["forward", "--graph", graph, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in err] == [
        {"error": "E_SCHEMA", "message": f"cannot write {out}: No such file or directory"}
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


def test_an_out_path_naming_a_directory_is_a_bad_input(tmp_path, capsys):
    graph = write(tmp_path / "g.json", EX_GRAPH)
    out = tmp_path / "o.json"
    out.mkdir()
    (out / "kept").write_text("")
    assert main(["forward", "--graph", graph, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in err] == [
        {"error": "E_SCHEMA", "message": f"cannot write {out}: Is a directory"}
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "o.json"]
    assert [p.name for p in out.iterdir()] == ["kept"]


def test_roundtrip_spectra_center_with_tied_value(tmp_path):
    # 2 is a Neumann and a double Dirichlet eigenvalue: non-strict interlacing
    spectra = write(tmp_path / "s.json", {
        "neumann_squared": [{"value": "1", "mult": 1}, {"value": "2", "mult": 1}],
        "dirichlet_squared": [{"value": "2", "mult": 2}],
    })
    out = tmp_path / "verdict.json"
    code = main(["verify-roundtrip", "--spectra", spectra, "--root", "center",
                 "--lengths", "2,1", "--out", str(out)])
    assert code == 0
    verdict = json.loads(out.read_text())
    assert verdict["mode"] == "spectra-center" and verdict["pass"] is True


def test_commands_in_one_process_repeat_their_bytes(ex_files, tmp_path):
    # the parser is built once per process; no option may leak between calls
    graph = write(tmp_path / "g.json", EX_GRAPH)
    spectra = write(tmp_path / "s.json", {
        "neumann_squared": [{"value": "1", "mult": 1}, {"value": "2", "mult": 1}],
        "dirichlet_squared": [{"value": "2", "mult": 2}],
    })
    runs = [
        ("forward", ["forward", "--graph", graph]),
        ("inverse-center", ["inverse-center", "--spectra", spectra, "--lengths", "2,1"]),
        ("forward", ["forward", "--graph", graph, "--emit-polys", "--digits", "3"]),
        ("forward", ["forward", "--graph", graph]),
        ("inverse-center", ["inverse-center", "--spectra", spectra, "--lengths", "2,1"]),
    ]
    first = {}
    for i, (command, argv) in enumerate(runs):
        out = tmp_path / f"out{i}.json"
        assert main([*argv, "--out", str(out)]) == 0
        got = sorted((p.name.replace(f"out{i}", "out"), p.read_bytes())
                     for p in tmp_path.glob(f"out{i}*"))
        if "--digits" in argv:
            assert len(got) == 2  # spectra and polys
            continue
        first.setdefault(command, got)
        assert got == first[command]
    assert len(first["forward"]) == 1 and len(first["inverse-center"]) == 2


def test_outputs_replace_the_previous_runs_outputs(tmp_path):
    """After a run that exits 0 or 2, the files named after --out are
    exactly the ones this run wrote; a run that exits 1 removes nothing."""
    good = write(tmp_path / "good.json", {
        "neumann_squared": [{"value": "1", "mult": 1}, {"value": "2", "mult": 1}],
        "dirichlet_squared": [{"value": "2", "mult": 2}],
    })
    bad = write(tmp_path / "bad.json", {
        "neumann_squared": [{"value": "1", "mult": 1}],
        "dirichlet_squared": [{"value": "1", "mult": 1}],
    })
    out = str(tmp_path / "g.json")

    def run(spectra, *extra):
        return main(["inverse-center", "--spectra", spectra, "--lengths", "2,1", "--out", out, *extra])

    def outputs():
        return sorted(p.name for p in tmp_path.iterdir() if p.name not in ("good.json", "bad.json"))

    assert run(bad) == 2
    assert outputs() == ["g.report.json"]
    assert run(good, "--enumerate") == 0
    assert outputs() == ["g.constraints.json", "g.json", "g.plan.json"]
    assert run(good) == 0
    assert outputs() == ["g.json", "g.plan.json"]
    assert run(str(tmp_path / "missing.json")) == 1
    assert outputs() == ["g.json", "g.plan.json"]
    assert run(bad) == 2
    assert outputs() == ["g.report.json"]


def test_outputs_never_remove_an_input(tmp_path):
    # the spectra file has the name of a sibling this run does not write
    spectra = write(tmp_path / "g.constraints.json", {
        "neumann_squared": [{"value": "1", "mult": 1}, {"value": "2", "mult": 1}],
        "dirichlet_squared": [{"value": "2", "mult": 2}],
    })
    out = tmp_path / "g.json"
    assert main(["inverse-center", "--spectra", spectra, "--lengths", "2,1", "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.constraints.json", "g.json", "g.plan.json"]


TIED_SPECTRA = {
    "neumann_squared": [{"value": "1"}, {"value": "2"}],
    "dirichlet_squared": [{"value": "2", "mult": 2}],
}


@pytest.mark.parametrize("plan", [
    {"residue_split": {"2": 5}},
    {"residue_split": {"2": None}},
    {"residue_split": {"2": True}},
    {"residue_split": {"2": 1.5}},
    {"residue_split": {"2": {"1/3": 0, "2/3": 1}}},  # not the object's keys
    {"residue_split": {"2": "12"}},  # not the string's characters
    {"partition": [[True, False]]},  # not the edges 1 and 0
    {"residue_split": {"2": ["1/2", "1/2"], "4/2": ["1/3", "2/3"]}},  # one pole, two keys
])
def test_malformed_plan_is_a_schema_error(tmp_path, capsys, plan):
    spectra = write(tmp_path / "s.json", TIED_SPECTRA)
    out = tmp_path / "g.json"
    argv = ["inverse-center", "--spectra", spectra, "--lengths", "2,1",
            "--plan", write(tmp_path / "p.json", plan), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "E_SCHEMA"
    assert not out.exists()


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("root", [["center"], ["pendant", "--main-length", "1"]])
def test_huge_multiplicity_is_refused_before_it_is_expanded(tmp_path, root):
    # one list slot per occurrence would need terabytes; the run is held to
    # 1 GiB of address space, so an expansion ends in MemoryError
    spectra = write(tmp_path / "s.json", {
        "neumann_squared": [{"value": "1", "mult": 10 ** 12}],
        "dirichlet_squared": [{"value": "2", "mult": 10 ** 12}],
    })
    out = tmp_path / "r.json"
    run = subprocess.run(
        [sys.executable, "-m", "starstring.cli", "validate", "--root", *root,
         "--spectra", spectra, "--lengths", "2,1", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(Path(starstring.__file__).parents[1])),
        capture_output=True, text=True, timeout=120, preexec_fn=_limit_memory,
    )
    assert run.returncode == 2, run.stderr
    assert "multiplicity" in [i["code"] for i in json.loads(out.read_text())["issues"]]


def test_single_string_report_prints_rationals(tmp_path):
    spectra = write(tmp_path / "s.json", {
        "neumann_squared": [{"value": "10/3"}, {"value": "6"}],
        "dirichlet_squared": [{"value": "10/3"}, {"value": "6"}],
    })
    out = tmp_path / "r.json"
    assert main(["validate", "--spectra", spectra, "--lengths", "2", "--out", str(out)]) == 2
    messages = [i["message"] for i in json.loads(out.read_text())["issues"]]
    assert "single-string data must interlace strictly, shared [10/3, 6]" in messages


def test_single_centre_length_is_refused_by_every_command(tmp_path, capsys):
    """Data valid for one string still needs a second string for a star:
    validate reports what inverse-center and verify-roundtrip refuse."""
    spectra = write(tmp_path / "s.json", ONE_STRING)
    report = tmp_path / "r.json"
    assert main(["validate", "--spectra", spectra, "--lengths", "1", "--out", str(report)]) == 2
    issues = json.loads(report.read_text())["issues"]
    assert issues == [{"code": "count", "message": "need at least two string lengths"}]
    for cmd in ("inverse-center", "verify-roundtrip"):
        out = tmp_path / f"{cmd}.json"
        assert main([cmd, "--spectra", spectra, "--lengths", "1", "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "E_INVARIANT", "message": issues[0]["message"]}
        assert not out.exists()


@pytest.mark.parametrize("plan", [{"partition": [[0]]}, {"residue_split": {"20": ["1/2", "1/2"]}}])
def test_user_plan_on_irrational_subgraph_poles_is_refused(tmp_path, capsys, plan):
    spectra = write(tmp_path / "s.json", MIXED_SPECTRA)
    out = tmp_path / "g.json"
    argv = ["inverse-pendant", "--spectra", spectra, "--main-length", "1/3", "--lengths", "3,1",
            "--plan", write(tmp_path / "p.json", plan), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "E_IRRATIONAL_POLE"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["forward", "--graph", "GRAPH", "--digits", "x"],
    ["forward", "--graph", "GRAPH", "--bogus"],
    ["forward"],
    [],
    ["frobnicate"],
    ["validate", "--root", "sideways", "--spectra", "GRAPH", "--lengths", "1"],
], ids=["bad-type", "unknown-flag", "missing-flag", "no-subcommand", "bad-subcommand", "bad-choice"])
def test_usage_error_is_one_schema_error_line(tmp_path, capsys, argv):
    graph = write(tmp_path / "g.json", EX_GRAPH)
    assert main([graph if a == "GRAPH" else a for a in argv]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0])["error"] == "E_SCHEMA"


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize("command", ["validate", "verify-roundtrip"])
def test_pendant_run_without_main_length_says_it_is_required(ex_files, capsys, command):
    tmp, spectra, _ = ex_files
    out = tmp / "o.json"
    argv = [command, "--spectra", spectra, "--root", "pendant", "--lengths", "2,1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        '{"error": "E_SCHEMA", "message": "--main-length is required for pendant validation"}\n')
    assert not out.exists()


# a q = 3 centre run with a user plan: the tied value 2 goes to edges 2 and 0
PLANNED_CENTER = {
    "neumann_squared": [{"value": v} for v in ("1", "2", "4")],
    "dirichlet_squared": [{"value": "2", "mult": 2}, {"value": "5"}],
}
PLANNED_CENTER_PLAN = {"partition": [[2, 0], [1]], "residue_split": {"2": ["1/4", "3/4"]}}
PLANNED_CENTER_OUT = {
    "": {
        "root": "center",
        "central_mass": "0",
        "edges": [
            {"lengths": ["48/103", "55/103"], "masses": ["10609/5280"]},
            {"lengths": ["18/31", "44/31"], "masses": ["961/1980"]},
            {"lengths": ["144/103", "165/103"], "masses": ["10609/15840"]},
        ],
    },
    ".plan": {
        "assignments": [
            {"value": "2", "edges": [2, 0], "shares": ["1/4", "3/4"]},
            {"value": "5", "edges": [1], "shares": ["1"]},
        ],
        "reusable_plan": {
            "partition": [[2, 0], [1]],
            "residue_split": {"2": ["1/4", "3/4"], "5": ["1"]},
        },
    },
    ".constraints": {
        "central_mass": "0",
        "poles": [
            {"value": "2", "mult": 2, "total_residue": "55/18", "free_parameters": 1,
             "constraint": "shares positive, summing to the total residue"},
            {"value": "5", "mult": 1, "total_residue": "55/9", "free_parameters": 0,
             "constraint": "shares positive, summing to the total residue"},
        ],
        "feasible_partitions": 9,
        "partition_used": [[2, 0], [1]],
        "shares_used": {"2": ["1/4", "3/4"], "5": ["1"]},
    },
}
# the irrational cluster goes whole to edge 1, the one 20 leaves free
MIXED_PENDANT_OUT = {
    "": {
        "root": "pendant",
        "central_mass": "0",
        "main_edge": {"lengths": ["1/3"], "masses": []},
        "edges": [
            {"lengths": ["804291/426101", "474012/426101"],
             "masses": ["181562062201/2541623903280"]},
            {"lengths": ["439947177/1233949537", "2402917499603238240/5106099791832818483",
                         "715325000/4138013459"],
             "masses": ["1522631459862514369/15593165099867290320",
                        "17123155386865144681/10506317972827950000"]},
        ],
    },
    ".plan": {
        "gamma": "13/12",
        "cf": {
            "a": ["385/608", "6930/21641", "173139172087/2462156472288", "10729875/180140216"],
            "b": ["152/1155", "197192792/181648005", "106745057304364/35437461593625"],
        },
        "main_mass_count": 0,
        "tail_constant": "547/1824",
        "central_mass": "0",
        "common_zeros": [],
        "subgraph_plan": {
            "assignments": [{"value": "20", "edges": [0], "shares": ["1"]}],
            "reusable_plan": {"partition": [[0]], "residue_split": {"20": ["1"]}},
        },
    },
    ".constraints": {"subgraph_report": None},
}


@pytest.mark.parametrize("spectra, argv, expected", [
    (PLANNED_CENTER, ["inverse-center", "--lengths", "1,2,3"], PLANNED_CENTER_OUT),
    (MIXED_SPECTRA, ["inverse-pendant", "--main-length", "1/3", "--lengths", "3,1"],
     MIXED_PENDANT_OUT),
], ids=["center-with-plan", "pendant-mixed-poles"])
def test_graph_plan_and_constraints_bytes(tmp_path, spectra, argv, expected):
    argv = argv + ["--spectra", write(tmp_path / "s.json", spectra), "--enumerate",
                   "--out", str(tmp_path / "g.json")]
    if argv[0] == "inverse-center":
        argv += ["--plan", write(tmp_path / "p.json", PLANNED_CENTER_PLAN)]
    assert main(argv) == 0
    for key, obj in expected.items():
        got = (tmp_path / f"g{key}.json").read_bytes()
        assert got == (json.dumps(obj, indent=2) + "\n").encode()


# a two-string pendant graph (one non-main edge); with --main-length 1 the
# subgraph quotient's only pole is 8/3, with 1/2 both poles are irrational
TWO_STRING_SPECTRA = {
    "neumann_squared": [{"value": "1"}, {"value": "3"}],
    "dirichlet_squared": [{"value": "2"}, {"value": "4"}],
}
BAD_PLAN = {"partition": [[5], [7, 8]], "residue_split": {"99": ["1/2", "1/2"]}}


@pytest.mark.parametrize("main_length, plan, status, code", [
    ("1", BAD_PLAN, 2, "E_PLAN_INFEASIBLE"),
    ("1", {"partition": [[1]]}, 2, "E_PLAN_INFEASIBLE"),
    ("1", {"residue_split": {"99": ["1"]}}, 2, "E_PLAN_INFEASIBLE"),
    ("1/2", BAD_PLAN, 1, "E_IRRATIONAL_POLE"),
], ids=["partition-length", "bad-edge", "absent-pole", "irrational"])
def test_two_string_pendant_checks_its_plan(tmp_path, capsys, main_length, plan, status, code):
    out = tmp_path / "g.json"
    argv = ["inverse-pendant", "--spectra", write(tmp_path / "s.json", TWO_STRING_SPECTRA),
            "--main-length", main_length, "--lengths", "1",
            "--plan", write(tmp_path / "p.json", plan), "--out", str(out)]
    assert main(argv) == status
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == code
    assert not out.exists()


def test_two_string_pendant_follows_a_feasible_plan(tmp_path):
    spectra = write(tmp_path / "s.json", TWO_STRING_SPECTRA)
    argv = ["inverse-pendant", "--spectra", spectra, "--main-length", "1", "--lengths", "1"]
    assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
    plan = write(tmp_path / "p.json", {"partition": [[0]], "residue_split": {"8/3": ["1"]}})
    assert main(argv + ["--plan", plan, "--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    # without a plan nothing is split, so no subgraph plan is reported
    assert "subgraph_plan" not in json.loads((tmp_path / "a.plan.json").read_text())
    used = json.loads((tmp_path / "b.plan.json").read_text())["subgraph_plan"]
    assert used["reusable_plan"] == {"partition": [[0]], "residue_split": {"8/3": ["1"]}}


NO_DIRICHLET = {"neumann_squared": [{"value": v} for v in ("1", "2", "3")], "dirichlet_squared": []}
NO_SPECTRA = {"neumann_squared": [], "dirichlet_squared": []}
BARE_EDGE = {"lengths": ["1"], "masses": []}
# strictly interlacing: valid data for one string, refused for a star
ONE_STRING = {"neumann_squared": [{"value": v} for v in ("1", "3")], "dirichlet_squared": [{"value": "2"}]}


@pytest.mark.parametrize("argv, files, status, code, message", [
    (["validate", "--spectra", "s.json", "--lengths", "1,1"], {"s.json": NO_DIRICHLET},
     2, "count", "need #neumann = #dirichlet or #dirichlet + 1, got 3 vs 0"),
    (["validate", "--spectra", "s.json", "--lengths", "1"], {"s.json": ONE_STRING},
     2, "count", "need at least two string lengths"),
    (["inverse-center", "--spectra", "s.json", "--lengths", "2,1", "--plan", "p.json"],
     {"s.json": EX_SPECTRA, "p.json": {"partition": [[0], [0]]}},
     2, "E_PLAN_INFEASIBLE", "value 2 needs 2 edges, partition gives 1"),
    (["inverse-center", "--spectra", "s.json", "--lengths", "2,1", "--plan", "p.json"],
     {"s.json": EX_SPECTRA, "p.json": {"residue_split": {"2": ["1"]}}},
     2, "E_PLAN_INFEASIBLE", "value 2 needs 2 residue shares"),
    (["validate", "--spectra", "s.json", "--root", "pendant", "--main-length", "1",
      "--lengths", "1"], {"s.json": NO_SPECTRA},
     2, "count", "need at least one eigenvalue pair"),
    (["forward", "--graph", "g.json"], {"g.json": {"root": "center", "edges": {}}},
     1, "E_SCHEMA", "graph.edges: expected array"),
    (["forward", "--graph", "g.json"], {"g.json": {"root": "pendant", "edges": [BARE_EDGE]}},
     1, "E_SCHEMA", "graph.main_edge: required for pendant root"),
    (["forward", "--graph", "g.json"],
     {"g.json": {"root": "center", "main_edge": BARE_EDGE, "edges": [BARE_EDGE] * 2}},
     1, "E_SCHEMA", "graph.main_edge: not allowed for centre root"),
    (["inverse-center", "--spectra", "s.json", "--lengths", "2,1", "--plan", "p.json"],
     {"s.json": EX_SPECTRA, "p.json": []}, 1, "E_SCHEMA", "plan: expected object"),
    (["inverse-center", "--spectra", "s.json", "--lengths", "2,1", "--plan", "p.json"],
     {"s.json": EX_SPECTRA, "p.json": {"partition": {}}},
     1, "E_SCHEMA", "plan.partition: expected array of arrays"),
    (["inverse-center", "--spectra", "s.json", "--lengths", "2,1", "--plan", "p.json"],
     {"s.json": EX_SPECTRA, "p.json": {"residue_split": []}},
     1, "E_SCHEMA", "plan.residue_split: expected object"),
    (["validate", "--spectra", "s.json", "--lengths", "1,1"], {"s.json": []},
     1, "E_SCHEMA", "spectra: expected object"),
    (["validate", "--spectra", "s.json", "--lengths", "1,1"],
     {"s.json": {"neumann_squared": [{"value": "1"}]}},
     1, "E_SCHEMA", "spectra.dirichlet_squared: missing"),
    (["forward", "--graph", "g.json"], {"g.json": {"root": "center", "edges": [{"lengths": ["1"]}]}},
     1, "E_SCHEMA", "graph.edges[0]: missing field 'masses'"),
], ids=["count", "one-length", "partition-edges", "share-count", "no-pair", "edges-not-array",
        "pendant-without-main", "center-with-main", "plan-not-object",
        "partition-not-array", "split-not-object", "spectra-not-object", "no-dirichlet-field",
        "edge-without-masses"])
def test_each_error_branch_reports_its_code(tmp_path, capsys, argv, files, status, code, message):
    """An error is one stderr line; a validation failure is one issue in
    the report.  Either way the code, message and exit status are fixed."""
    for name, obj in files.items():
        write(tmp_path / name, obj)
    out = tmp_path / "o.json"
    got = main([str(tmp_path / a) if a in files else a for a in argv] + ["--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if err:
        (line,) = err
        found = json.loads(line)["error"], json.loads(line)["message"]
    else:
        (issue,) = json.loads(out.read_text())["issues"]
        found = issue["code"], issue["message"]
    assert (got, *found) == (status, code, message)
