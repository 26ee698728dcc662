"""Mutation census: every fixed mutant of `src/avor3` must fail a check or a test.

Each mutant is one (file, old, new) string patch, and `old` must occur exactly
once in its file, so a refactor that moves a site fails here loudly instead of
leaving a mutant that no longer mutates anything.  Each mutant is applied to
a temporary copy of `src`, `tests` and README.md, one at a time, and the copy runs
`avor3 verify all` and the test modules of TEST_MODULES, each under a
timeout.  The unpatched copy runs first and must pass everything.

Run from anywhere, with pytest and hypothesis installed:

    python tools/mutants.py

Progress goes to stderr.  Stdout is one JSON document: for each mutant its
verdict per `verify` check ("pass", "fail", or "absent" when the command
crashed or timed out), its failed-test count per test module, and whether it
was killed; and for each check, under "sole_kills", the mutants that it
fails and no other check does.  A mutant is killed when any check or any
test module fails.
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
TEST_MODULES = ("test_acceptance", "test_cli", "test_equivariant", "test_fan", "test_mhs",
                "test_ssengine", "test_strata")

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
     "return not v.f_count and all(2 * n == pq[0] + pq[1] for n in v.tates)",
     "return True"),
    ("stabilizer-keeps-half", "fan.py",
     "group = StabilizerGroup(c, tuple(elements))",
     "group = StabilizerGroup(c, tuple(elements[::2]))"),
    ("molien-ignores-sign-character", "equivariant.py",
     "for cols in powers[:half])] += s",
     "for cols in powers[:half])] += 1"),
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


def _tests(cwd):
    """{module: failed or errored tests, a collection error included}; None
    for every module on a timeout or when pytest writes no report."""
    report = cwd / "report.xml"
    done = _run(["-c", _PYTEST, "-q", "-p", "no:cacheprovider", "--junitxml", str(report)]
                + ["tests/%s.py" % m for m in TEST_MODULES], cwd)
    if done is None or not report.exists():
        return dict.fromkeys(TEST_MODULES)
    failed = dict.fromkeys(TEST_MODULES, 0)
    for case in ET.parse(report).iter("testcase"):
        # a collection error has no class name; its name is the module's
        module = (case.get("classname") or case.get("name", "")).rsplit(".", 1)[-1]
        if module in failed and (case.find("failure") is not None
                                 or case.find("error") is not None):
            failed[module] += 1
    return failed


def _caught(verdicts, failed):
    return any(v != "pass" for v in verdicts.values()) or any(n != 0 for n in failed.values())


def sole_kills(matrix, checks):
    """{check: the mutants of `matrix` whose only check verdict other than
    "pass" is this check's}."""
    sole = {check: [] for check in checks}
    for name, row in matrix.items():
        failing = [check for check, verdict in row["verify"].items() if verdict != "pass"]
        if len(failing) == 1:
            sole[failing[0]].append(name)
    return sole


def run_copy(patch=None):
    """(verify verdicts, failed tests per module) of a temporary copy, with the (file, old, new) `patch` applied when one is given."""
    with tempfile.TemporaryDirectory(prefix="avor3-mutant-") as tmp:
        cwd = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, cwd / part, ignore=ignore)
        shutil.copy(ROOT / "README.md", cwd)  # test_cli runs its JSON examples
        if patch is not None:
            path, old, new = patch
            target = cwd / "src" / "avor3" / path
            target.write_text(target.read_text().replace(old, new))
        return _verify(cwd), _tests(cwd)


def main():
    unmatched = check_patches(ROOT / "src" / "avor3")
    if unmatched:
        print("patches not matching exactly once: %s" % unmatched, file=sys.stderr)
        return 2
    checks, tests = run_copy()
    if not checks or _caught(checks, tests):
        print("the unpatched copy fails: %s %s" % (checks, tests), file=sys.stderr)
        return 2
    matrix = {}
    for name, path, old, new in MUTANTS:
        verdicts, failed = run_copy((path, old, new))
        verdicts = {check: verdicts.get(check, "absent") for check in checks}
        killed = _caught(verdicts, failed)
        matrix[name] = {"file": path, "verify": verdicts, "tests": failed, "killed": killed}
        print("%s %s" % ("killed" if killed else "SURVIVED", name), file=sys.stderr)
    print(json.dumps({"checks": list(checks), "test_modules": list(TEST_MODULES),
                      "mutants": matrix, "sole_kills": sole_kills(matrix, checks)},
                     indent=1))
    return 0 if all(m["killed"] for m in matrix.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
