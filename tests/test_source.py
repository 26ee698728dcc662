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


def test_every_imported_name_is_used():
    # an import nothing reads is dead weight, and misleads a reader about
    # what a module depends on
    found = []
    for path in sorted(SRC.rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        for node in nodes:
            if (isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                # `import a.b` binds the name a
                bound = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                found += ["%s:%d %s" % (path.relative_to(SRC), node.lineno, name)
                          for name in bound if name not in used]
    assert found == []


def test_every_module_level_definition_is_referenced():
    # a function or class that no code of the package names is dead weight:
    # a helper left behind by its last caller fails here
    names, defined = set(), []
    for path, node in _nodes():
        if isinstance(node, ast.Module):
            defined += [("%s:%d" % (path, d.lineno), d.name) for d in node.body
                        if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert [where for where, name in defined if name not in names] == []


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


def test_census_deselects_the_patch_test_by_its_node_id():
    # a patched copy fails that test by construction; under another name it
    # would run again in every copy and kill every mutant
    assert _mutants().DESELECTED == ("tests/test_source.py::%s"
                                     % test_every_mutant_patch_matches_exactly_once.__name__)


# a collection error of test_fan, a failure of test_linalg, a teardown error
# of test_mhs and a skipped test of test_records, in the layout pytest writes
REPORT = """<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">
<testcase classname="" name="tests.test_fan"><error message="collection failure">E</error></testcase>
<testcase classname="tests.test_linalg" name="test_a"><failure message="assert 0">E</failure></testcase>
<testcase classname="tests.test_linalg" name="test_b"/>
<testcase classname="tests.test_mhs" name="test_c"><error message="teardown">E</error></testcase>
<testcase classname="tests.test_records" name="test_d"><skipped message="skip"/></testcase>
</testsuite></testsuites>"""


def test_failed_tests_counts_every_module_the_report_names():
    assert _mutants().failed_tests(REPORT) == {"test_fan": 1, "test_linalg": 1, "test_mhs": 1,
                                               "test_records": 0}


def test_a_check_kills_before_the_suite_and_the_suite_decides_the_rest():
    judge = _mutants().judge
    ran = []

    def suite(failed):
        def run():
            ran.append(failed)
            return failed
        return run

    assert judge({"a": "pass", "b": "fail"}, suite({"test_mhs": 0})) == (None, True)
    assert judge({"a": "absent", "b": "pass"}, suite({"test_mhs": 0})) == (None, True)
    assert ran == []
    passed = {"test_mhs": 0, "test_cli": 0}
    assert judge({"a": "pass", "b": "pass"}, suite(passed)) == (passed, False)
    failed = {"test_mhs": 0, "test_cli": 2}
    assert judge({"a": "pass", "b": "pass"}, suite(failed)) == (failed, True)
    # a timed-out suite kills
    assert judge({"a": "pass", "b": "pass"}, suite(None)) == (None, True)
    assert ran == [passed, failed, None]
