import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from avor3 import cli, ssengine, strata
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
    (_page(page=2), "knowns[0]: known differential d_1 at (0,0) precedes page 2"),
    (_page(page=-3), '"page" must be at least 0'),
    (_page([{"tate": 0, "atom": "F"}]),
     'entries[0].classes[0]: a class holds "tate" or "atom", not both'),
    (_page(known={"citation": ""}), "knowns[0]: a known differential must carry a citation"),
    # the offending value is not echoed, so the line stays short however large it is
    (_page([{"atom": [[[["x" * 50]]]] * 30}]), 'entries[0].classes[0]: "atom" must be "F"'),
], ids=["negative-tate", "negative-mult", "string-tate", "float-mult", "float-p",
        "bool-tate", "bool-page", "missing-classes", "missing-citation",
        "string-rank", "entries-object", "early-page-known", "negative-page",
        "tate-and-atom", "empty-citation", "large-atom"])
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
        assert (code, out, err) == (
            1, "", "error: knowns[1]: repeated known differential d_1 at (0,0)\n")


def test_ss_resolve_names_a_repeated_position(capsys, tmp_path):
    page = _page()
    page["entries"].append({"p": 0, "q": 0, "classes": [{"tate": 1}]})
    path = tmp_path / "page.json"
    path.write_text(json.dumps(page))
    code, out, err = run_cli(capsys, "ss", "resolve", "--input", str(path))
    assert (code, out, err) == (1, "", "error: repeated position (0,0)\n")


@pytest.mark.parametrize("top", [{"knowns": [{"r": 1}]}, {"page": True}, {"label": 7}],
                         ids=["knowns", "page", "label"])
def test_a_repeated_position_is_named_before_the_other_page_fields(capsys, tmp_path, top):
    # the entries are read, and checked for repeats, first
    page = _page(**top)
    page["entries"].append({"p": 0, "q": 0, "classes": [{"tate": 1}]})
    path = tmp_path / "page.json"
    path.write_text(json.dumps(page))
    code, out, err = run_cli(capsys, "ss", "resolve", "--input", str(path))
    assert (code, out, err) == (1, "", "error: repeated position (0,0)\n")


_README = os.path.join(os.path.dirname(_SRC), "README.md")


def test_every_json_block_of_the_readme_runs(capsys, tmp_path):
    # a page through both `ss` commands, a representation through `equi invariants`
    with open(_README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```json\n(.*?)^```$", fh.read(), re.S | re.M)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / ("block%d.json" % i)
        path.write_text(block)
        data = json.loads(block)
        if "generators" in data:
            commands = [("equi", "invariants", "--rep", str(path))]
        else:
            assert "entries" in data, block
            commands = [("ss", command, "--input", str(path))
                        for command in ("resolve", "abutment")]
        for argv in commands:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), (argv, block, err)
            assert out


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


def test_ss_resolve_counts_the_assignments_before_building_them(capsys, tmp_path, monkeypatch):
    # d_1 from (0,0) to (1,0), whose ends share 40 copies of each of four
    # weights: 41^4 assignments, past the cap, raise before any choice is built
    # (building them all took about 30 s and 3.5 GB)
    path = tmp_path / "page.json"
    classes = [{"tate": w, "mult": 40} for w in range(4)]
    path.write_text(json.dumps(_page(entries=[{"p": p, "q": 0, "classes": classes}
                                              for p in (0, 1)], knowns=None)))

    def refuse(*args):
        raise RuntimeError("choices built")
    monkeypatch.setattr(ssengine, "_choices", refuse)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "ss", "resolve", "--input", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (1, "", "error: assignment enumeration exceeds cap 1000000\n")
    assert peak < 2 ** 22


@pytest.mark.parametrize("argv", [("ss", "resolve", "--input"), ("equi", "invariants", "--rep"),
                                  ("betti", "avor3", "--registry")],
                         ids=["page", "rep", "registry"])
@pytest.mark.parametrize("content,message", [
    (b"nope", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"[" * 200000 + b"]" * 200000, None),  # deeper than the recursion limit
], ids=["not-json", "not-utf8", "nested-too-deep"])
def test_an_unreadable_file_is_one_error_line(capsys, tmp_path, argv, content, message):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert message is None or err == "error: %s\n" % message


@pytest.mark.parametrize("error", [ValueError("a bug"), KeyError("a bug")],
                         ids=["ValueError", "KeyError"])
def test_a_library_error_that_is_no_avor3_error_propagates(monkeypatch, error):
    # only an Avor3Error or an OSError is the user's; anything else is a bug
    def broken(registry):
        raise error
    monkeypatch.setattr(strata, "compactification_betti", broken)
    with pytest.raises(type(error)) as exc:
        cli.main(["betti", "avor3"])
    assert exc.value is error


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
    (_registry(lambda d: d["pages"][0].update(knowns=[{"r": 1, "p": 0, "q": 0, "rank": 0,
                                                       "citation": "ref"}])),
     "pages[0].knowns[0]: known differential d_1 at (0,0) precedes page 2"),
    (_registry(lambda d: d["tables"][3]["entries"][0]["classes"][0].update(atom="F")),
     'tables[3].entries[0].classes[0]: a class holds "tate" or "atom", not both'),
    (_registry(lambda d: d["tables"].append(dict(d["tables"][1]))),
     "tables[6]: duplicate table label 'a2'"),
    (_registry(lambda d: d["pages"].append(dict(d["pages"][0]))),
     "pages[3]: duplicate page label 'kummer_e2_expected'"),
    (_registry(lambda d: d["knowns"]["cstar_bundle_d2"].update(citation="")),
     _KNOWN + ": a known differential must carry a citation"),
    # only the assembled rank-2 page sees this, but the error names the registry field
    (_registry(lambda d: d["knowns"]["cstar_bundle_d2"].update(r=1)),
     _KNOWN + ": known differential d_1 at (2,2) precedes page 2"),
    # Q(-7) in degree 14 reaches the resolved table, outside the Betti vector
    (_registry(lambda d: _table(d, "a3_open")["entries"].append(
        {"degree": 14, "classes": [{"tate": 7}]}), _drop_page("main_e1_expected")),
     "table 'avor3' has classes in degree 14, outside 0..12"),
], ids=["list-file", "fibers-list", "string-known", "short-fiber-item", "missing-citation",
        "bool-rank", "float-twist", "number-citation", "negative-table-tate", "float-page-p",
        "huge-table-mult", "early-page-known", "tate-and-atom", "duplicate-table-label",
        "duplicate-page-label", "empty-citation", "early-registry-known",
        "class-above-the-top-degree"])
def test_betti_rejects_malformed_registry(capsys, tmp_path, registry, message):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(registry))
    code, out, err = run_cli(capsys, "betti", "avor3", "--registry", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("argv", [("betti", "avor3"), ("strata", "table", "--stratum", "beta2")],
                         ids=["betti", "beta2"])
def test_a_weight_overlap_refuses_the_rank_two_split(capsys, tmp_path, argv):
    # modular_line moved to degree 1, still Q(-1): the product piece then
    # holds Q(-3) in degree 5, next to the bundle's Q(-3) in degree 6, so
    # d_1 between them on the two-column page may have rank 0 or 1
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(_registry(
        lambda d: _table(d, "modular_line")["entries"][0].update(degree=1))))
    code, out, err = run_cli(capsys, *argv, "--registry", str(path))
    assert (code, out) == (1, "")
    assert err == "error: 2 candidate resolutions survive\n"


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["pages"][1]["entries"].append(dict(d["pages"][1]["entries"][0])),
     "pages[1]: repeated position (2,2)"),
    (lambda d: d["tables"][3]["entries"].append({"degree": 4, "classes": [{"tate": 1}]}),
     "tables[3]: repeated degree 4"),
    (lambda d: d["pages"][2].update(knowns=[{"r": 1, "p": 0, "q": 0, "rank": r,
                                             "citation": "ref"} for r in (0, 1)]),
     "pages[2].knowns[1]: repeated known differential d_1 at (0,0)"),
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


@pytest.mark.parametrize("module", ("numpy", "fractions", "dataclasses", "inspect",
                                    "avor3.verify"))
def test_cli_import_does_not_load(module):
    env = dict(os.environ, PYTHONPATH=_SRC)
    code = "import sys, avor3.cli; print(%r in sys.modules)" % module
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_betti_does_not_load_verify():
    # only the `verify` command imports the checks
    env = dict(os.environ, PYTHONPATH=_SRC)
    code = ("import sys, avor3.cli; code = avor3.cli.main(['betti', 'avor3']); "
            "print(code, 'avor3.verify' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "0 False"


def test_verify_all_latex_escapes_a_failing_detail(capsys, tmp_path, monkeypatch):
    # the registry's name and the table label carry "_", special in LaTeX text
    monkeypatch.chdir(tmp_path)
    registry = _registry(
        lambda d: d.update(tables=[t for t in d["tables"] if t["label"] != "a3_open"]))
    (tmp_path / "bad_reg.json").write_text(json.dumps(registry))
    code, out, _ = run_cli(capsys, "verify", "all", "--registry", "bad_reg.json",
                           "--format", "latex")
    assert code == 1
    assert out.splitlines()[3] == ("betti\\_vector & fail & raised InputError: registry "
                                   "'bad\\_reg.json' has no table 'a3\\_open' \\\\")


_PACKAGED = json.loads(resources.files("avor3").joinpath("data/paper_data.json").read_text())
_S3 = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]
_DOCUMENTS = {  # the files the fuzz mutates, by argv placeholder
    "{page}": _PACKAGED["pages"],
    "{rep}": [{"dimension": 2, "generators": [[[0, 1], [1, 0]]], "signs": [-1]},
              {"dimension": 3, "generators": _S3, "signs": [-1, 1]}],
    "{registry}": [_PACKAGED],
}
_COMMANDS = (
    ("fan", "faces", "--dim", "{dim}"),
    ("fan", "orbits", "--dim", "{dim}"),
    ("fan", "stabilizer", "--cone", "{cone}"),
    ("fan", "cusp-rank", "--cone", "{cone}"),
    ("fan", "torus-coords"),
    ("equi", "invariants", "--cone", "{cone}"),
    ("equi", "invariants", "--rep", "{rep}"),
    ("ss", "resolve", "--input", "{page}"),
    ("ss", "resolve", "--input", "{page}", "--purity"),
    ("ss", "abutment", "--input", "{page}"),
    ("strata", "table", "--stratum", "{stratum}", "--registry", "{registry}"),
    ("betti", "avor3", "--registry", "{registry}"),
    ("verify", "all", "--registry", "{registry}"),
)
_WORDS = {
    "{dim}": [str(d) for d in range(7)] + ["-1", "7"],
    "{cone}": ["a1,a2,a3", "a1,a2,a3,b1", "a1,a2,b1,b2", "a1,a2,b3", "b3, a1 ,a2", "a1", "0",
               "", "a1,a1", "a9", "a1,,a2"],
    "{stratum}": list(strata.STRATUM_NAMES) + ["beta9"],
}
# argv words put in, or swapped for another; none abbreviates --help
_TOKENS = ("", "x", "-1", "7", "a9", "avor3", "all", "beta1", "json", "latex", "--dim",
           "--cone", "--format", "--purity", "--input", "--rep", "--registry", "--bogus")
# JSON values swapped in for a value of the document, and out-of-range integers;
# none takes a class count, a dimension or a group past the library's caps
_SWAPS = (None, True, 2.5, "x", "F", [], {}, [0], {"tate": 0})
_INTEGERS = (-1, 0, 10 ** 9, -(10 ** 9), MAX_CLASSES + 1)


def _nodes(value, parent, key):
    """(parent, key) of every value under `value`, then of `value` itself."""
    if isinstance(value, (dict, list)):
        for k in list(value) if isinstance(value, dict) else range(len(value)):
            yield from _nodes(value[k], value, k)
    yield parent, key


def _mutated(data, document):
    """`document` after one to three edits, each at a drawn position: a type
    swap, a deleted key or list item, or an integer put out of range."""
    root = [copy.deepcopy(document)]
    for _ in range(data.draw(st.integers(1, 3))):
        nodes = list(_nodes(root[0], root, 0))
        edit = data.draw(st.sampled_from(("swap", "delete", "integer")))
        if edit == "integer":
            nodes = [(p, k) for p, k in nodes if type(p[k]) is int] or nodes
        parent, key = data.draw(st.sampled_from(nodes))
        if edit == "delete" and parent is not root:
            del parent[key]
        elif edit == "integer":
            parent[key] = data.draw(st.sampled_from(_INTEGERS))
        else:
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(_SWAPS)))
    return root[0]


def _main(argv):
    """(exit code, stdout, stderr, whether argparse exited) of `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, exited = cli.main(argv), False
        except SystemExit as exc:  # a usage error; any other exception fails the test
            code, exited = exc.code, True
    return code, out.getvalue(), err.getvalue(), exited


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_no_cli_input_prints_a_traceback(fuzz_dir, data):
    argv = list(data.draw(st.sampled_from(_COMMANDS)))
    for i, word in enumerate(argv):
        if word in _WORDS:
            argv[i] = data.draw(st.sampled_from(_WORDS[word]))
        elif word in _DOCUMENTS:
            document = data.draw(st.sampled_from(_DOCUMENTS[word]))
            path = fuzz_dir / "input.json"
            path.write_text(json.dumps(_mutated(data, document)))
            argv[i] = str(path)
    argv += data.draw(st.sampled_from(([], ["--format", "json"], ["--format", "latex"])))
    for _ in range(data.draw(st.integers(0, 5)) // 3):  # argv mostly kept
        i = data.draw(st.integers(0, len(argv)))
        edit = data.draw(st.sampled_from(("insert", "replace", "delete")))
        if edit != "insert" and i < len(argv):
            del argv[i]
        if edit != "delete":
            argv.insert(i, data.draw(st.sampled_from(_TOKENS)))
    code, out, err, exited = _main(argv)
    if exited:
        assert (code, out) == (2, ""), argv
    else:
        assert code in (0, 1), argv
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (argv, err)
