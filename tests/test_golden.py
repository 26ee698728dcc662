"""Golden stdout: the exit code and the sha256 of stdout of pinned commands.

Every command runs in-process through `cli.main`.  Page files are written
from the raw dicts of the packaged `paper_data.json`, so no library writer
sits between the registry and the command under test.  An argv word of the
form "{name}" stands for an input file the test writes: the registry page
`name`, a representation in REPS, or BAD_REGISTRY.

After an intended change of output, rewrite the stored file with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from importlib import resources

from avor3 import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_stdout.json")

FORMATS = ("text", "json", "latex")
PAGES = ("kummer_e2_expected", "cstar_bundle_e2", "main_e1_expected")
CUSP_RANK_THREE = ("a1,a2,a3", "a1,a2,a3,b1", "a1,a2,b1,b2", "a1,a2,a3,b1,b2",
                   "a1,a2,a3,b1,b2,b3")
# the symmetric group S3 permuting three coordinates, plain and sign-twisted
S3 = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]
REPS = {"swap": {"dimension": 2, "generators": [[[0, 1], [1, 0]]]},
        "swap_signed": {"dimension": 2, "generators": [[[0, 1], [1, 0]]], "signs": [-1]},
        "s3": {"dimension": 3, "generators": S3},
        "s3_signed": {"dimension": 3, "generators": S3, "signs": [-1, 1]}}
# the packaged registry with one extra entry on the stored page
# kummer_e2_expected: seven checks fail with a detail that names no file
BAD_REGISTRY = "bad_registry"


def golden_commands():
    cmds = []
    for fmt in FORMATS:
        cmds.append(["betti", "avor3", "--format", fmt])
        cmds.append(["verify", "all", "--format", fmt])
        cmds.extend(["strata", "table", "--stratum", s, "--format", fmt]
                    for s in ("a3", "beta1", "beta2", "beta3"))
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
    return cmds


def write_inputs(directory):
    """{"{name}": path} for each registry page, representation and the bad
    registry, written from raw JSON."""
    text = resources.files("avor3").joinpath("data/paper_data.json").read_text("utf-8")
    docs = dict(REPS)
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
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([paths.get(a, a) for a in argv])
    return {"argv": argv, "exit": code,
            "sha256": hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()}


def _stored():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_pins_every_command():
    assert [g["argv"] for g in _stored()] == golden_commands()


def test_stdout_matches_golden(tmp_path):
    paths = write_inputs(str(tmp_path))
    differ = [" ".join(g["argv"]) for g in _stored() if run(g["argv"], paths) != g]
    assert differ == []


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(tmp)
        with contextlib.redirect_stderr(io.StringIO()):
            records = [run(argv, paths) for argv in golden_commands()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in records))
    sys.stderr.write("wrote %d commands to %s\n" % (len(records), GOLDEN))
