"""Mutation census: every fixed mutant of `src/avor3` must fail a check or a test.

Each mutant is one (file, old, new) string patch, and `old` must occur exactly
once in its file, so a refactor that moves a site fails here loudly instead of
leaving a mutant that no longer mutates anything.  Each mutant is applied to
a temporary copy of `src`, `tests`, `tools`, README.md and pyproject.toml, one
at a time, and every copy runs `avor3 verify all`.  The test suite, every
`tests/test_*.py` to the end, runs only where it can change the verdict: in
the unpatched copy, which runs first and must pass everything, and in a
mutant that passes every check.  Each command runs under a timeout.  The
copies deselect DESELECTED, which a patched copy fails by construction; the
patches are checked on the real tree first instead.

Run from anywhere, with pytest and hypothesis installed:

    python tools/mutants.py

Progress goes to stderr.  Stdout is one JSON document: for each mutant its
verdict per `verify` check ("pass", "fail", or "absent" when the command
crashed or timed out), its failed-test count per test module (null when a
check killed it and the suite did not run, or when the suite timed out), and
whether it was killed; and for each check, under "sole_kills", the mutants
that it fails and no other check does.  A mutant is killed when any check
does not pass, or else when any test fails or the suite times out.
Exit status: 0 when every mutant is killed, 1 when one survives, 2 when a
patch does not match exactly once or the unpatched copy fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per command; a mutant that runs longer counts as killed
# fails in every patched copy by construction, so it would kill every mutant
DESELECTED = "tests/test_source.py::test_every_mutant_patch_matches_exactly_once"

# pytest with Hypothesis reporting the first failing example it finds: a mutant
# only has to fail, and shrinking each failure to a smallest example took the
# census on a 2-vCPU host from 408 to 463 s
_PYTEST = ("import sys, pytest\n"
           "from hypothesis import Phase, settings\n"
           "settings.register_profile('census', phases=(Phase.explicit, Phase.reuse,"
           " Phase.generate))\n"
           "settings.load_profile('census')\n"
           "sys.exit(pytest.main(sys.argv[1:]))\n")

# (name, file under src/avor3, old, new)
MUTANTS = (
    ("molien-upper-coefficients-without-det", "equivariant.py",
     "low + [d * e for e in reversed(low[:n - half])]",
     "low + [e for e in reversed(low[:n - half])]"),
    ("is-pure-always-true", "ssengine.py",
     "if w != p + q}",
     "if False}"),
    ("weight-counts-keep-every-f", "mhs.py",
     "f = min(f_count, counts.get(0, 0), counts.get(6, 0))",
     "f = f_count"),
    ("stabilizer-keeps-half", "fan.py",
     "group = StabilizerGroup(c, tuple(elements))",
     "group = StabilizerGroup(c, tuple(elements[::2]))"),
    ("molien-ignores-sign-character", "equivariant.py",
     "tuple(traces[:h])] += s",
     "tuple(traces[:h])] += 1"),
    ("molien-trace-of-x-times-xt", "equivariant.py",
     "chain.from_iterable(power), chain.from_iterable(cols)",
     "chain.from_iterable(power), chain.from_iterable(power)"),
    ("molien-middle-rule-for-odd-n", "equivariant.py",
     "h = half - (d < 0 and n % 2 == 0)",
     "h = half - (d < 0)"),
    ("beta2-split-columns-swapped", "strata.py",
     "_column_page((product_table, torus_table)",
     "_column_page((torus_table, product_table)"),
    ("graded-keeps-first-part", "mhs.py",
     "parts[key] = _add(parts[key], v) if key in parts else v",
     "parts[key] = parts[key] if key in parts else v"),
    ("diagonal-sums-keep-first-part", "mhs.py",
     "parts[k] = _add(parts[k], v) if k in parts else v",
     "parts[k] = parts[k] if k in parts else v"),
    ("line-maps-without-target-inverse", "fan.py",
     "yield u_t_inv * GroupElement(block) * u_s",
     "yield GroupElement(block) * u_s"),
    ("graded-passes-any-tuple", "mhs.py",
     "if type(pairs) is Graded:",
     "if isinstance(pairs, tuple):"),
    ("disjoint-union-skips-key-check", "mhs.py",
     "if key == prev:",
     "if False:"),
    ("torus-coordinates-transposed", "fan.py",
     "return tuple(zip(*u))",
     "return tuple(map(tuple, u))"),
    ("product-shear-sign", "strata.py",
     "((1, 1), (0, -1))",
     "((1, 1), (0, 1))"),
    ("laplace-plan-without-odd-signs", "linalg.py",
     "cols[p + 1:]], p % 2)",
     "cols[p + 1:]], 0)"),
    ("known-sharing-nothing-left-skipped", "ssengine.py",
     "if any(caps) or known and known.rank:",
     "if any(caps):"),
    ("leray-twist-off-by-one", "ssengine.py",
     "vec.tate_twist(twist)",
     "vec.tate_twist(twist + 1)"),
    ("product-items-twist-off-by-one", "strata.py",
     '(k, "modular_line", n) for k, v in fiber.entries',
     '(k, "modular_line", n + 1) for k, v in fiber.entries'),
    ("congruence-swaps-s12-s13", "forms.py",
     "a * s11 + b * s12 + c * s13",
     "a * s11 + b * s13 + c * s12"),
    ("hermite-form-skips-reduction-above-pivots", "linalg.py",
     "q = m[i][c] // m[r][c]",
     "q = 0"),
    ("h1-pullback-transposed", "equivariant.py",
     "out[2 * i][2 * j] = b[j][i]\n            out[2 * i + 1][2 * j + 1] = b[j][i]",
     "out[2 * i][2 * j] = b[i][j]\n            out[2 * i + 1][2 * j + 1] = b[i][j]"),
)


def check_patches(src):
    """The mutants whose `old` does not occur exactly once, with its count."""
    counts = ((name, (src / path).read_text().count(old)) for name, path, old, _ in MUTANTS)
    return {name: n for name, n in counts if n != 1}


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run([sys.executable] + args, cwd=cwd, env=env, timeout=TIMEOUT_S,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return None


def _verify(cwd):
    """{check name: "pass" or "fail"} from the lines of `verify all`."""
    done = _run(["-m", "avor3.cli", "verify", "all"], cwd)
    lines = done.stdout.splitlines() if done is not None else []
    return {parts[1]: parts[0].lower() for parts in map(str.split, lines)
            if len(parts) > 1 and parts[0] in ("PASS", "FAIL")}


def failed_tests(report):
    """{test module: failed or errored tests} from the text of a pytest JUnit
    report, for every module the report names; a collection error counts as
    one failed test of its module."""
    failed = {}
    for case in ET.fromstring(report).iter("testcase"):
        # "tests.<module>[.<class>]"; a collection error has no class name,
        # and its name is the module's
        module = (case.get("classname") or case.get("name")).split(".")[1]
        failed[module] = failed.get(module, 0) + (case.find("failure") is not None
                                                  or case.find("error") is not None)
    return failed


def _tests(cwd):
    """failed_tests of the whole suite, or None on a timeout or when pytest
    writes no report."""
    report = cwd / "report.xml"
    done = _run(["-c", _PYTEST, "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 "--junitxml", str(report), "--deselect", DESELECTED, "tests"], cwd)
    if done is None or not report.exists():
        return None
    return failed_tests(report.read_text())


def judge(verdicts, run_tests):
    """(failed tests per module, killed) of one copy from its check verdicts.
    `run_tests()` runs the suite only when every check passes; the tests are
    None when it did not run, or when it timed out, which kills."""
    if any(v != "pass" for v in verdicts.values()):
        return None, True
    failed = run_tests()
    return failed, failed is None or any(failed.values())


def sole_kills(matrix, checks):
    """{check: the mutants of `matrix` whose only check verdict other than
    "pass" is this check's}."""
    sole = {check: [] for check in checks}
    for name, row in matrix.items():
        failing = [check for check, verdict in row["verify"].items() if verdict != "pass"]
        if len(failing) == 1:
            sole[failing[0]].append(name)
    return sole


def run_copy(checks=None, patch=None):
    """(verdict per check, failed tests per module, killed) of a temporary
    copy, by `judge`, with the (file, old, new) `patch` applied when one is
    given.  With `checks`, a check that `verify all` does not report is
    "absent"."""
    with tempfile.TemporaryDirectory(prefix="avor3-mutant-") as tmp:
        cwd = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests", "tools"):  # test_source loads tools/mutants.py
            shutil.copytree(ROOT / part, cwd / part, ignore=ignore)
        # test_cli runs README's JSON examples; pyproject.toml makes the copy
        # pytest's root directory, to which DESELECTED is relative
        for name in ("README.md", "pyproject.toml"):
            shutil.copy(ROOT / name, cwd)
        if patch is not None:
            path, old, new = patch
            target = cwd / "src" / "avor3" / path
            target.write_text(target.read_text().replace(old, new))
        verdicts = _verify(cwd)
        if checks is not None:
            verdicts = {check: verdicts.get(check, "absent") for check in checks}
        return (verdicts,) + judge(verdicts, lambda: _tests(cwd))


def main():
    unmatched = check_patches(ROOT / "src" / "avor3")
    if unmatched:
        print("patches not matching exactly once: %s" % unmatched, file=sys.stderr)
        return 2
    checks, tests, caught = run_copy()
    if not checks or caught:
        print("the unpatched copy fails: %s %s" % (checks, tests), file=sys.stderr)
        return 2
    matrix = {}
    for name, path, old, new in MUTANTS:
        verdicts, failed, killed = run_copy(checks, (path, old, new))
        matrix[name] = {"file": path, "verify": verdicts, "tests": failed, "killed": killed}
        print("%s %s" % ("killed" if killed else "SURVIVED", name), file=sys.stderr)
    print(json.dumps({"checks": list(checks), "test_modules": sorted(tests),
                      "mutants": matrix, "sole_kills": sole_kills(matrix, checks)},
                     indent=1))
    return 0 if all(m["killed"] for m in matrix.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
