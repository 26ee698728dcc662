import ast
import importlib.util
from pathlib import Path

import avor3

SRC = Path(avor3.__file__).parent


def _nodes():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.relative_to(SRC), node


def test_package_has_no_assert_statements():
    # guards must raise, so that they survive `python -O`
    found = ["%s:%d" % (path, node.lineno) for path, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_does_not_import_dataclasses():
    # records are namedtuples: `dataclasses` (and the `inspect` it loads)
    # costs the CLI a large share of its import time
    found = ["%s:%d" % (path, node.lineno) for path, node in _nodes()
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert found == []


def _mutants():
    path = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_every_mutant_patch_matches_exactly_once():
    # the mutation census in CI needs each patched site once; a refactor that
    # moves or copies one fails here first
    assert _mutants().check_patches(SRC) == {}


def test_sole_kills_lists_the_mutants_only_one_check_fails():
    rows = {"one": ("fail", "pass", "pass"), "two": ("fail", "fail", "pass"),
            "crash": ("absent", "absent", "absent"), "none": ("pass", "pass", "pass"),
            "last": ("pass", "pass", "fail")}
    checks = ("a", "b", "c")
    matrix = {name: {"verify": dict(zip(checks, row))} for name, row in rows.items()}
    assert _mutants().sole_kills(matrix, checks) == {"a": ["one"], "b": [], "c": ["last"]}
