"""Golden stdout: the exit code and the sha256 of stdout of pinned commands.

Every command runs in-process through `cli.main`.  Page files are written
from the raw dicts of the packaged `paper_data.json`, so no library writer
sits between the registry and the command under test.  An argv word of the
form "{label}" stands for the file of the registry page `label`.

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
    return cmds


def write_pages(directory):
    """{"{label}": path} for each registry page, written from the raw JSON."""
    text = resources.files("avor3").joinpath("data/paper_data.json").read_text("utf-8")
    raw = {p["label"]: p for p in json.loads(text)["pages"]}
    paths = {}
    for label in PAGES:
        path = os.path.join(directory, label + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw[label], fh)
        paths["{%s}" % label] = path
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
    paths = write_pages(str(tmp_path))
    differ = [" ".join(g["argv"]) for g in _stored() if run(g["argv"], paths) != g]
    assert differ == []


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_pages(tmp)
        with contextlib.redirect_stderr(io.StringIO()):
            records = [run(argv, paths) for argv in golden_commands()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in records))
    sys.stderr.write("wrote %d commands to %s\n" % (len(records), GOLDEN))
