import json
import os
import subprocess
import sys
from importlib import resources

import pytest

from avor3 import cli
from avor3.equivariant import MAX_DIMENSION
from avor3.mhs import MAX_CLASSES
from avor3.registry import load_registry, parse_registry
from avor3.ssengine import SSPage


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_text_is_exact(capsys):
    code, out, _ = run_cli(capsys, "betti", "avor3")
    assert code == 0
    assert out == "1 0 2 0 4 0 6 0 4 0 2 0 1\n"


def test_betti_json(capsys):
    code, out, _ = run_cli(capsys, "betti", "avor3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"betti": [1, 0, 2, 0, 4, 0, 6, 0, 4, 0, 2, 0, 1]}


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_output_is_deterministic():
    # fresh processes, so no lru_cache answers the second run, under two
    # hash seeds, so no output may depend on set or dict order
    for argv in (("fan", "orbits", "--dim", "3", "--format", "json"),
                 ("fan", "stabilizer", "--cone", "a1,a2,a3", "--format", "json"),
                 ("betti", "avor3"),
                 ("verify", "all", "--format", "json")):
        outputs = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED=hashseed)
            result = subprocess.run([sys.executable, "-m", "avor3.cli", *argv], env=env,
                                    capture_output=True, check=True)
            outputs.append(result.stdout)
        assert outputs[0], argv
        assert outputs[0] == outputs[1], argv


def test_fan_faces(capsys):
    code, out, _ = run_cli(capsys, "fan", "faces", "--dim", "2")
    assert code == 0
    assert out.splitlines()[0] == "faces of dimension 2: 15"


def test_fan_orbits_text(capsys):
    code, out, _ = run_cli(capsys, "fan", "orbits", "--dim", "3")
    assert code == 0
    assert out.splitlines()[0] == "orbit census: dimension 3"
    assert "a1,a2,a3" in out and "cusp rank 3" in out
    assert out.splitlines()[-1] == "classes: 2, faces covered: 20"


def test_fan_stabilizer(capsys):
    code, out, _ = run_cli(capsys, "fan", "stabilizer", "--cone", "a1,a2,a3,b1")
    assert code == 0
    assert "stabilizer order    24" in out
    assert "element orders      1:1 2:7 3:2 6:2" in out


def test_fan_stabilizer_span_deficient_fails(capsys):
    code, _, err = run_cli(capsys, "fan", "stabilizer", "--cone", "a1,a2,b3")
    assert code == 1
    assert "error:" in err


def test_fan_cusp_rank(capsys):
    code, out, _ = run_cli(capsys, "fan", "cusp-rank", "--cone", "a1,a2,b3")
    assert code == 0
    assert out == "cusp rank of a1,a2,b3: 2\n"


def test_fan_cusp_rank_latex(capsys):
    code, out, _ = run_cli(capsys, "fan", "cusp-rank", "--cone", "a1,a2,b3", "--format", "latex")
    assert code == 0
    assert out == ("\\begin{tabular}{lr}\ncone & cusp rank \\\\\n\\hline\n"
                   "a1, a2, b3 & 2 \\\\\n\\end{tabular}\n")


def test_fan_torus_coords_json(capsys):
    code, out, _ = run_cli(capsys, "fan", "torus-coords", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["coordinates"][0] == {"dual_to": "a1", "exponents": [1, 0, 0, 0, 1, 1]}


def test_equi_invariants_from_cone(capsys):
    code, out, _ = run_cli(capsys, "equi", "invariants", "--cone", "a1,a2,a3,b1")
    assert code == 0
    assert "group order 12" in out
    assert "invariant dimensions: 1 0 0" in out


@pytest.mark.parametrize("fmt,expected", [
    ("text", "group order 1\ninvariant dimensions: 1\n"),
    ("json", '{\n  "group_order": 1,\n  "invariant_dimensions": [\n    1\n  ]\n}\n'),
    ("latex", "\\begin{tabular}{lc}\n$k$ & 0 \\\\\n\\hline\n"
              "$\\dim(\\Lambda^k)^G$ & 1 \\\\\n\\end{tabular}\n"),
])
def test_equi_invariants_on_the_zero_dimensional_stratum(capsys, fmt, expected):
    code, out, _ = run_cli(capsys, "equi", "invariants", "--cone", "a1,a2,a3,b1,b2,b3",
                           "--format", fmt)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("argv", [
    ("fan", "orbits", "--dim", "7"),
    ("fan", "orbits", "--dim", "-1"),
    ("fan", "faces", "--dim", "7"),
])
def test_face_dimension_out_of_range_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_equi_invariants_infinite_group_fails(capsys, tmp_path):
    rep = {"dimension": 2, "generators": [[[1, 1], [0, 1]]]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code, out, err = run_cli(capsys, "equi", "invariants", "--rep", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("rep", [
    {"dimension": 2, "generators": [[[0.5, 1], [1, 0]]]},
    {"dimension": 2, "generators": [[[0, 0], [0, 0]]]},
    {"dimension": 2, "generators": [[["0", True], [1, 0]]]},
    {"dimension": 2, "generators": [[[0, 1], [1, 0]]], "signs": [1.9]},
    [1],
], ids=["float-entry", "zero-matrix", "str-and-bool-entries", "float-sign", "not-an-object"])
def test_equi_invariants_rejects_malformed_rep(capsys, tmp_path, rep):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code, out, err = run_cli(capsys, "equi", "invariants", "--rep", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("key", ["dimension", "generators"])
def test_equi_invariants_names_missing_rep_field(capsys, tmp_path, key):
    rep = {"dimension": 2, "generators": [[[0, 1], [1, 0]]]}
    del rep[key]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code, out, err = run_cli(capsys, "equi", "invariants", "--rep", str(path))
    assert code == 1
    assert out == ""
    assert err == 'error: representation: missing "%s"\n' % key


def test_equi_invariants_rejects_dimension_above_the_bound(capsys, tmp_path):
    n = MAX_DIMENSION + 1
    rep = {"dimension": n, "generators": [[[int(i == j) for j in range(n)] for i in range(n)]]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code, out, err = run_cli(capsys, "equi", "invariants", "--rep", str(path))
    assert code == 1
    assert out == ""
    assert err == 'error: representation: "dimension" must be at most %d\n' % MAX_DIMENSION


def test_equi_invariants_accepts_dimension_at_the_bound(capsys, tmp_path):
    n = MAX_DIMENSION
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(n)] for i in range(n)]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"dimension": n, "generators": [swap]}))
    code, out, err = run_cli(capsys, "equi", "invariants", "--rep", str(path),
                             "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"group_order": 2,
                               "invariant_dimensions": [1, 5, 10, 10, 5, 1, 0]}


def test_equi_invariants_from_rep_file(capsys, tmp_path):
    rep = {"dimension": 2, "generators": [[[0, 1], [1, 0]]]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code, out, _ = run_cli(capsys, "equi", "invariants", "--rep", str(path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"group_order": 2, "invariant_dimensions": [1, 1, 0]}


@pytest.fixture()
def main_page_file(tmp_path):
    page = load_registry().page("main_e1_expected")
    path = tmp_path / "page.json"
    path.write_text(json.dumps(page.to_json_dict()))
    return str(path)


def test_ss_resolve_with_purity(capsys, main_page_file):
    code, out, _ = run_cli(capsys, "ss", "resolve", "--input", main_page_file,
                           "--purity")
    assert code == 0
    assert "d_1 at (2,3): rank 1 (solver)" in out


def test_ss_resolve_without_purity_is_ambiguous(capsys, main_page_file):
    code, out, _ = run_cli(capsys, "ss", "resolve", "--input", main_page_file)
    assert code == 1
    assert "2 candidates survive" in out


def test_ss_abutment(capsys, tmp_path):
    page = load_registry().page("kummer_e2_expected")
    path = tmp_path / "kummer.json"
    path.write_text(json.dumps(page.to_json_dict()))
    code, out, _ = run_cli(capsys, "ss", "abutment", "--input", str(path))
    assert code == 0
    assert "H_c^5  = Q" in out


def test_ss_resolve_rejects_non_object_page(capsys, tmp_path):
    path = tmp_path / "page.json"
    path.write_text("[1]")
    code, out, err = run_cli(capsys, "ss", "resolve", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: a page must be a JSON object\n"


def _page(classes=None, entry=(), known=(), **top):
    """A one-entry page file with some fields replaced; None drops a field."""
    def merged(base, changes):
        base.update(changes)
        return {k: v for k, v in base.items() if v is not None}
    e = merged({"p": 0, "q": 0, "classes": classes or [{"tate": 0, "mult": 1}]}, dict(entry))
    k = merged({"r": 1, "p": 0, "q": 0, "rank": 0, "citation": "ref"}, dict(known))
    return merged({"label": "bad", "page": 1, "entries": [e], "knowns": [k]}, top)


@pytest.mark.parametrize("page,message", [
    (_page([{"tate": -1}]), 'entries[0].classes[0]: "tate" must be at least 0'),
    (_page([{"tate": 0, "mult": -2}]), 'entries[0].classes[0]: "mult" must be at least 1'),
    (_page([{"tate": "1"}]), 'entries[0].classes[0]: "tate" must be an integer'),
    (_page([{"tate": 0, "mult": 1.9}]), 'entries[0].classes[0]: "mult" must be an integer'),
    (_page(entry={"p": 0.5}), 'entries[0]: "p" must be an integer'),
    (_page([{"tate": True}]), 'entries[0].classes[0]: "tate" must be an integer'),
    (_page(page=True), '"page" must be an integer'),
    (_page(entry={"classes": None}), 'entries[0]: missing "classes"'),
    (_page(known={"citation": None}), 'knowns[0]: missing "citation"'),
    (_page(known={"rank": "1"}), 'knowns[0]: "rank" must be an integer'),
    (_page(entries={"p": 0}), '"entries" must be a list'),
], ids=["negative-tate", "negative-mult", "string-tate", "float-mult", "float-p",
        "bool-tate", "bool-page", "missing-classes", "missing-citation",
        "string-rank", "entries-object"])
def test_ss_resolve_rejects_malformed_page(capsys, tmp_path, page, message):
    path = tmp_path / "page.json"
    path.write_text(json.dumps(page))
    code, out, err = run_cli(capsys, "ss", "resolve", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message and "Traceback" not in err


def test_ss_resolve_rejects_repeated_known(capsys, tmp_path):
    # rank 0 then rank 1 at one d_1, in either order: no order may decide
    for ranks in ((0, 1), (1, 0)):
        page = _page(entries=[{"p": 0, "q": 0, "classes": [{"tate": 0}]},
                              {"p": 1, "q": 0, "classes": [{"tate": 0}]}],
                     knowns=[{"r": 1, "p": 0, "q": 0, "rank": rank, "citation": "ref"}
                             for rank in ranks])
        path = tmp_path / "page.json"
        path.write_text(json.dumps(page))
        code, out, err = run_cli(capsys, "ss", "resolve", "--input", str(path))
        assert (code, out, err) == (1, "", "error: repeated known differential d_1 at (0,0)\n")


def test_ss_resolve_names_a_repeated_position(capsys, tmp_path):
    page = _page()
    page["entries"].append({"p": 0, "q": 0, "classes": [{"tate": 1}]})
    path = tmp_path / "page.json"
    path.write_text(json.dumps(page))
    code, out, err = run_cli(capsys, "ss", "resolve", "--input", str(path))
    assert (code, out, err) == (1, "", "error: repeated position (0,0)\n")


@pytest.mark.parametrize("classes,where", [
    ([[{"tate": 0, "mult": MAX_CLASSES + 1}]], "entries[0].classes[0]"),
    ([[{"tate": 0, "mult": MAX_CLASSES}], [{"atom": "F"}]], "entries[1].classes[0]"),
], ids=["one-class", "across-entries"])
def test_ss_abutment_rejects_more_classes_than_the_bound(capsys, tmp_path, classes, where):
    path = tmp_path / "page.json"
    path.write_text(json.dumps(_page(entries=[{"p": p, "q": 0, "classes": c}
                                              for p, c in enumerate(classes)])))
    code, out, err = run_cli(capsys, "ss", "abutment", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == "error: %s: more than %d classes in all entries\n" % (where, MAX_CLASSES)


def test_ss_abutment_accepts_the_class_bound(capsys, tmp_path):
    path = tmp_path / "page.json"
    path.write_text(json.dumps(_page(entries=[
        {"p": 0, "q": 0, "classes": [{"tate": 0, "mult": MAX_CLASSES - 1}]},
        {"p": 1, "q": 0, "classes": [{"atom": "F"}]}])))
    code, out, _ = run_cli(capsys, "ss", "abutment", "--input", str(path))
    assert code == 0
    assert out == "table bad\n  H_c^0  = Q^%d\n  H_c^1  = F\n" % (MAX_CLASSES - 1)


def test_ss_resolve_missing_file(capsys):
    code, _, err = run_cli(capsys, "ss", "resolve", "--input", "/no/such/file.json")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("stratum,line", [
    ("a3", "H_c^6  = F"),
    ("beta1", "H_c^5  = Q"),
    ("beta2", "H_c^6  = Q(-3)^2"),
    ("beta3", "H_c^0  = Q"),
])
def test_strata_tables(capsys, stratum, line):
    code, out, _ = run_cli(capsys, "strata", "table", "--stratum", stratum)
    assert code == 0
    assert line in out


def test_strata_table_latex(capsys):
    code, out, _ = run_cli(capsys, "strata", "table", "--stratum", "beta3",
                           "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert "$\\mathbf{Q}(-2)^{\\oplus 2}$" in out


def test_bad_registry_path_fails(capsys):
    code, _, err = run_cli(capsys, "betti", "avor3", "--registry", "/no/such.json")
    assert code == 1
    assert "error:" in err


def _registry(*edits):
    """The packaged registry document after applying each edit(data) in turn."""
    data = json.loads(resources.files("avor3").joinpath("data/paper_data.json").read_text())
    for edit in edits:
        edit(data)
    return data


def _table(data, label):
    return next(t for t in data["tables"] if t["label"] == label)


def _drop_page(label):
    def edit(data):
        data["pages"] = [p for p in data["pages"] if p["label"] != label]
    return edit


_KNOWN = "knowns.cstar_bundle_d2"
_FIBER = "fibers.kummer_fiber[0]"


@pytest.mark.parametrize("registry,message", [
    ([1], "a registry must be a JSON object"),
    (_registry(lambda d: d.update(fibers=[1])), '"fibers" must be an object'),
    (_registry(lambda d: d["knowns"].update(cstar_bundle_d2="1")),
     _KNOWN + ": expected an object"),
    (_registry(lambda d: d["fibers"]["kummer_fiber"][0].pop()),
     _FIBER + ": expected [degree, table, twist]"),
    (_registry(lambda d: d["knowns"]["cstar_bundle_d2"].pop("citation")),
     _KNOWN + ': missing "citation"'),
    (_registry(lambda d: d["knowns"]["cstar_bundle_d2"].update(rank=True)),
     _KNOWN + ': "rank" must be an integer'),
    (_registry(lambda d: d["fibers"]["kummer_fiber"][0].__setitem__(2, 0.9)),
     _FIBER + ': "twist" must be an integer'),
    (_registry(lambda d: d["tables"][0].update(citation=7)),
     'tables[0]: "citation" must be a string'),
    (_registry(lambda d: d["tables"][3]["entries"][0]["classes"][0].update(tate=-1)),
     'tables[3].entries[0].classes[0]: "tate" must be at least 0'),
    (_registry(lambda d: d["pages"][1]["entries"][0].update(p=0.5)),
     'pages[1].entries[0]: "p" must be an integer'),
    (_registry(lambda d: d["tables"][3]["entries"][0]["classes"][0].update(
        mult=MAX_CLASSES + 1)),
     'tables[3].entries[0].classes[0]: more than %d classes in all entries' % MAX_CLASSES),
], ids=["list-file", "fibers-list", "string-known", "short-fiber-item", "missing-citation",
        "bool-rank", "float-twist", "number-citation", "negative-table-tate", "float-page-p",
        "huge-table-mult"])
def test_betti_rejects_malformed_registry(capsys, tmp_path, registry, message):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(registry))
    code, out, err = run_cli(capsys, "betti", "avor3", "--registry", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["pages"][1]["entries"].append(dict(d["pages"][1]["entries"][0])),
     "pages[1]: repeated position (2,2)"),
    (lambda d: d["tables"][3]["entries"].append({"degree": 4, "classes": [{"tate": 1}]}),
     "tables[3]: repeated degree 4"),
    (lambda d: d["pages"][2].update(knowns=[{"r": 1, "p": 0, "q": 0, "rank": r,
                                             "citation": "ref"} for r in (0, 1)]),
     "pages[2]: repeated known differential d_1 at (0,0)"),
], ids=["page-position", "table-degree", "page-known"])
def test_parse_registry_names_the_document_of_a_repeated_key(edit, message):
    with pytest.raises(ValueError) as exc:
        parse_registry(_registry(edit))
    assert str(exc.value) == message


@pytest.mark.parametrize("edit,missing", [
    (lambda d: d.update(tables=[t for t in d["tables"] if t["label"] != "a3_open"]),
     "table 'a3_open'"),
    (lambda d: d["fibers"].pop("kummer_fiber"), "fibration 'kummer_fiber'"),
    (lambda d: d["knowns"].pop("cstar_bundle_d2"), "known differential 'cstar_bundle_d2'"),
    (_drop_page("cstar_bundle_e2"), "page 'cstar_bundle_e2'"),
], ids=["table", "fibration", "known", "page"])
def test_betti_names_missing_registry_entry(capsys, tmp_path, edit, missing):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(_registry(edit)))
    code, out, err = run_cli(capsys, "betti", "avor3", "--registry", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: registry %r has no %s\n" % (str(path), missing)


def _extra_class(label, degree, tate):
    return lambda d: _table(d, label)["entries"].append(
        {"degree": degree, "classes": [{"tate": tate}]})


@pytest.mark.parametrize("argv,registry,count", [
    (("betti", "avor3"),
     _registry(_extra_class("a3_open", 9, 4), _drop_page("main_e1_expected")), 2),
    (("strata", "table", "--stratum", "beta1"),
     _registry(_extra_class("a2", 3, 2), _drop_page("kummer_e2_expected")), 4),
], ids=["betti", "strata-table"])
def test_ambiguous_resolution_is_an_error(capsys, tmp_path, argv, registry, count):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(registry))
    code, out, err = run_cli(capsys, *argv, "--registry", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: %d candidate resolutions survive\n" % count


def test_usage_errors_exit_2(main_page_file):
    for argv in (("fan", "orbits"),  # missing required --dim
                 ("strata", "table", "--stratum", "beta9"),
                 ("ss", "resolve", "--input", main_page_file, "--dim", "6")):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    assert out.splitlines()[-1] == "12/12 checks passed"
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])


@pytest.mark.parametrize("module", ("numpy", "fractions"))
def test_cli_import_does_not_load(module):
    env = dict(os.environ, PYTHONPATH=_SRC)
    code = "import sys, avor3.cli; print(%r in sys.modules)" % module
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_verify_all_latex_escapes_a_failing_detail(capsys, tmp_path, monkeypatch):
    # the registry's name and the table label carry "_", special in LaTeX text
    monkeypatch.chdir(tmp_path)
    registry = _registry(
        lambda d: d.update(tables=[t for t in d["tables"] if t["label"] != "a3_open"]))
    (tmp_path / "bad_reg.json").write_text(json.dumps(registry))
    code, out, _ = run_cli(capsys, "verify", "all", "--registry", "bad_reg.json",
                           "--format", "latex")
    assert code == 1
    assert out.splitlines()[3] == ("betti\\_vector & fail & raised ValueError: registry "
                                   "'bad\\_reg.json' has no table 'a3\\_open' \\\\")
