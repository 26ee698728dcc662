"""Golden output: the exit code, the sha256 of stdout and the stderr text of
pinned commands.

Every command runs in-process through `cli.main`.  Page files are written
from the raw dicts of the packaged `paper_data.json` or of TWO_BLOCKS, so no
library writer sits between the registry and the command under test.  An
argv word of the form "{name}" stands for an input file the test writes:
the registry page `name`, a representation in REPS, TWO_BLOCKS or
BAD_REGISTRY.

After an intended change of output, rewrite the stored file with

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from importlib import resources

from avor3 import cli, strata

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_stdout.json")

FORMATS = ("text", "json", "latex")
PAGES = ("kummer_e2_expected", "cstar_bundle_e2", "main_e1_expected")
CUSP_RANK_THREE = ("a1,a2,a3", "a1,a2,a3,b1", "a1,a2,b1,b2", "a1,a2,a3,b1,b2",
                   "a1,a2,a3,b1,b2,b3")
# the symmetric group S3 permuting three coordinates, plain and sign-twisted
S3 = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]
# the same generators conjugated, u g u^-1 with u = [[1,2,1],[1,3,2],[0,1,2]]
S3_DENSE = [[[7, -5, 2], [12, -9, 4], [6, -5, 3]], [[4, -3, 2], [9, -7, 4], [9, -7, 3]]]
REPS = {"swap": {"dimension": 2, "generators": [[[0, 1], [1, 0]]]},
        "swap_signed": {"dimension": 2, "generators": [[[0, 1], [1, 0]]], "signs": [-1]},
        "s3": {"dimension": 3, "generators": S3},
        "s3_signed": {"dimension": 3, "generators": S3, "signs": [-1, 1]},
        "s3_dense": {"dimension": 3, "generators": S3_DENSE},
        # of infinite order: the closure stops at its element cap
        "shear": {"dimension": 2, "generators": [[[1, 1], [0, 1]]]}}
# two blocks that no differential joins, each ambiguous: d_2 (0,1) -> (2,0)
# holds the first position and d_1 (0,3) -> (1,3) the first page, and the
# candidates come in product order over the blocks in position order
TWO_BLOCKS = {"label": "two_blocks", "page": 1, "knowns": [], "entries": [
    {"p": 0, "q": 1, "classes": [{"tate": 0}]}, {"p": 2, "q": 0, "classes": [{"tate": 0}]},
    {"p": 0, "q": 3, "classes": [{"tate": 1}]}, {"p": 1, "q": 3, "classes": [{"tate": 1}]}]}
# the packaged registry with one extra entry on the stored page
# kummer_e2_expected: four checks fail with a detail that names no file
BAD_REGISTRY = "bad_registry"


def golden_commands():
    cmds = []
    for fmt in FORMATS:
        cmds.append(["betti", "avor3", "--format", fmt])
        cmds.append(["verify", "all", "--format", fmt])
        cmds.extend(["strata", "table", "--stratum", s, "--format", fmt]
                    for s in strata.STRATUM_NAMES)
        for label in PAGES:
            page = "{%s}" % label
            cmds.append(["ss", "resolve", "--input", page, "--format", fmt])
            cmds.append(["ss", "resolve", "--input", page, "--purity", "--format", fmt])
            cmds.append(["ss", "abutment", "--input", page, "--format", fmt])
        cmds.extend(["fan", "orbits", "--dim", str(d), "--format", fmt] for d in range(7))
        cmds.append(["fan", "cusp-rank", "--cone", "a1,a2,b3", "--format", fmt])
    for fmt in ("text", "json"):
        cmds.extend(["equi", "invariants", "--cone", c, "--format", fmt]
                    for c in CUSP_RANK_THREE)
    for fmt in FORMATS:
        cmds.extend(["fan", "faces", "--dim", str(d), "--format", fmt] for d in range(7))
        cmds.extend(["fan", "stabilizer", "--cone", c, "--format", fmt]
                    for c in CUSP_RANK_THREE + ("a1,a2,b3",))
        cmds.append(["fan", "torus-coords", "--format", fmt])
        cmds.extend(["equi", "invariants", "--rep", "{%s}" % r, "--format", fmt]
                    for r in REPS)
        cmds.append(["verify", "all", "--registry", "{%s}" % BAD_REGISTRY, "--format", fmt])
    cmds.extend(["equi", "invariants", "--cone", c, "--format", "latex"]
                for c in CUSP_RANK_THREE)
    cmds.extend(["ss", "resolve", "--input", "{two_blocks}", "--format", fmt]
                for fmt in FORMATS)
    return cmds


def write_inputs(directory):
    """{"{name}": path} for each registry page, representation, the
    two-block page and the bad registry, written from raw JSON."""
    text = resources.files("avor3").joinpath("data/paper_data.json").read_text("utf-8")
    docs = dict(REPS, two_blocks=TWO_BLOCKS)
    docs.update((p["label"], p) for p in json.loads(text)["pages"] if p["label"] in PAGES)
    bad = json.loads(text)
    page = next(p for p in bad["pages"] if p["label"] == "kummer_e2_expected")
    page["entries"].append({"p": 9, "q": 9, "classes": [{"tate": 1}]})
    docs[BAD_REGISTRY] = bad
    paths = {}
    for name, doc in docs.items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths["{%s}" % name] = path
    return paths


def run(argv, paths):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([paths.get(a, a) for a in argv])
    return {"argv": argv, "exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "stderr": err.getvalue()}


def _stored():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_pins_every_command():
    assert [g["argv"] for g in _stored()] == golden_commands()


def _leaf_commands(parser, path=()):
    """The argv prefix of every leaf command under `parser`, e.g. ("fan", "faces")."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return [path]
    return [leaf for name, sub in groups[0].choices.items()
            for leaf in _leaf_commands(sub, path + (name,))]


def test_golden_pins_every_command_of_the_parser():
    leaves = _leaf_commands(cli._build_parser())
    assert ("fan", "faces") in leaves and ("betti",) in leaves
    pinned = {tuple(argv[:n]) for argv in golden_commands() for n in range(1, len(argv) + 1)}
    assert [leaf for leaf in leaves if leaf not in pinned] == []


def test_stdout_matches_golden(tmp_path):
    paths = write_inputs(str(tmp_path))
    differ = [" ".join(g["argv"]) for g in _stored() if run(g["argv"], paths) != g]
    assert differ == []


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(tmp)
        records = [run(argv, paths) for argv in golden_commands()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in records))
    sys.stderr.write("wrote %d commands to %s\n" % (len(records), GOLDEN))
