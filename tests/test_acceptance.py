"""End-to-end acceptance: every published value is recomputed exactly.

One test per criterion; each delegates to the matching named check in
avor3.verify, so `avor3 verify all` and this suite can never drift apart.
All of them read one pipeline result and its loci, as `run_all` does.  A
second group feeds each result-reading check a doctored result and expects
it to fail, and pins the detail of every failure branch of every check: a
doctored result for the checks that read one, a replaced `verify` function
for those of the fan and groups alone.  A third breaks one locus, or the
main page, at a time and pins exactly which checks fail: the readers of that
locus and of the whole result.
"""

import json
import random
import re
from functools import cache, partial
from importlib import resources

import pytest

from avor3 import cli, strata, verify
from avor3.forms import GroupElement
from avor3.mhs import CohomologyTable, MhsVector
from avor3.registry import load_registry, parse_registry
from avor3.ssengine import SSPage

T = MhsVector.tate
REGISTRY = load_registry()
CHECKS = dict(verify.ALL_CHECKS)
RESULT = cache(partial(strata.compactification_betti, REGISTRY))
# the checks that read the whole result; every locus error fails them
WHOLE = {"betti_vector", "main_page_resolution", "conservation_properties"}


def _pipeline(result):
    """A check's `pipeline` argument: `result`, or with a name one of its loci."""
    return lambda name=None: result if name is None else result.loci[name]


def pipeline(name=None):
    return _pipeline(RESULT())(name)


def _run(name):
    ok, detail = CHECKS[name](pipeline)
    assert ok, detail


def test_criterion_01_betti_vector():
    _run("betti_vector")


def test_criterion_02_main_page_resolution():
    _run("main_page_resolution")


def test_criterion_03_orbit_census():
    _run("orbit_census")


def test_criterion_04_local_cone_symmetries():
    _run("local_cone_symmetries")


def test_criterion_05_distinguished_dim4_symmetry():
    _run("distinguished_dim4_symmetry")


def test_criterion_06_stratum_invariants():
    _run("stratum_invariants")


def test_criterion_07_rank_one_pipeline():
    _run("rank_one_pipeline")


def test_criterion_08_rank_two_pipeline():
    _run("rank_two_pipeline")


def test_criterion_09_rank_three_attribution():
    _run("rank_three_attribution")


def test_criterion_10_torus_coordinates():
    _run("torus_coordinates")


def test_criterion_11_product_symmetry():
    _run("product_symmetry")


def test_criterion_12_conservation_properties():
    _run("conservation_properties")


def test_every_check_is_covered():
    assert len(verify.ALL_CHECKS) == 12
    names = {name for name, _ in verify.ALL_CHECKS}
    import inspect
    import sys
    this = sys.modules[__name__]
    covered = set()
    for fname, fn in inspect.getmembers(this, inspect.isfunction):
        if fname.startswith("test_criterion_"):
            covered.add(inspect.getsource(fn).split('_run("')[1].split('"')[0])
    assert covered == names


def _doctor_locus(r, name, **fields):
    """The result `r` with the given fields of its locus `name` replaced."""
    return r._replace(loci=dict(r.loci, **{name: r.loci[name]._replace(**fields)}))


# check name -> the shared result with the one field that check reads doctored
DOCTORED = {
    "betti_vector": lambda r: r._replace(betti=(1,) + r.betti[1:-1] + (2,)),
    "main_page_resolution": lambda r: r._replace(limit=r.page),
    "stratum_invariants": lambda r: _doctor_locus(
        r, "beta3", contributions=r.loci["beta3"].contributions[:3]),
    "rank_one_pipeline": lambda r: _doctor_locus(r, "beta1", table=r.loci["beta2"].table),
    "rank_two_pipeline": lambda r: _doctor_locus(r, "beta2", table=r.loci["beta3"].table),
    "rank_three_attribution": lambda r: _doctor_locus(
        r, "beta3", contributions=r.loci["beta3"].contributions[1:]),
    "conservation_properties": lambda r: _doctor_locus(
        r, "a3", table=CohomologyTable("a3", ())),
}


@pytest.mark.parametrize("name", sorted(DOCTORED))
def test_result_reading_check_fails_on_doctored_result(name):
    ok, detail = CHECKS[name](_pipeline(DOCTORED[name](RESULT())))
    assert ok is False, detail


def _first_candidate(report, **fields):
    """`report` with the given fields of its first candidate replaced."""
    first = report.candidates[0]._replace(**fields)
    return report._replace(candidates=(first,) + report.candidates[1:])


def _first_contribution(r, **fields):
    """`r` with the given fields of the first rank-three contribution replaced."""
    first, *rest = r.loci["beta3"].contributions
    return _doctor_locus(r, "beta3", contributions=(first._replace(**fields), *rest))


def _table_part(r, name, field, entries):
    """`r` with table `field` of locus `name` holding only `entries`."""
    table = getattr(r.loci[name], field)._replace(entries=entries)
    return _doctor_locus(r, name, **{field: table})


# one doctored result per failure branch of the checks that read results:
# (check, the result with the fields it reads doctored, its expected detail)
FAILURE_BRANCHES = {
    "main-decisions": ("main_page_resolution",
                       lambda r: r._replace(report=_first_candidate(r.report, decisions=())),
                       "unexpected decisions []"),
    "main-unique": ("main_page_resolution",
                    lambda r: r._replace(page=r.page._replace(entries=())),
                    "resolution without purity was unexpectedly unique"),
    "main-candidates": ("main_page_resolution",
                        lambda r: r._replace(page=r.page._replace(
                            entries=[((0, 3), T(1) + T(1)), ((1, 3), T(1) + T(1))])),
                        "purity-off candidates 3 with ranks [0, 1, 2]"),
    "invariants": ("stratum_invariants",
                   lambda r: _first_contribution(r, stratum_dim=4),
                   "a1,a2,a3 gives (1, 0, 0, 0) / (1, 0, 0, 0)"),
    "rank-one-degenerate": ("rank_one_pipeline",
                            lambda r: _doctor_locus(r, "beta1", limit=SSPage(1)),
                            "page does not degenerate"),
    "rank-one-differential": ("rank_one_pipeline",
                              lambda r: _doctor_locus(r, "beta1",
                                                      report=r.loci["beta2"].report),
                              "nonzero differential decided"),
    "rank-one-weights": ("rank_one_pipeline",
                         lambda r: _table_part(r, "beta1", "table", [(5, T(1))]),
                         "degree-5 class has weights {2: 1}"),
    "rank-one-table": ("rank_one_pipeline",
                       lambda r: _table_part(r, "beta1", "table", [(5, T(0))]),
                       "table ((5, MhsVector(tates=(0,), f_count=0)),)"),
    "rank-two-decisions": ("rank_two_pipeline",
                           lambda r: _doctor_locus(r, "beta2", report=r.loci["beta1"].report),
                           "decisions []"),
    "rank-two-bundle": ("rank_two_pipeline",
                        lambda r: _table_part(r, "beta2", "torus_table", [(6, T(3))]),
                        "bundle part ((6, MhsVector(tates=(3,), f_count=0)),)"),
    "rank-two-product": ("rank_two_pipeline",
                         lambda r: _table_part(r, "beta2", "product_table", [(2, T(1))]),
                         "product part ((2, MhsVector(tates=(1,), f_count=0)),)"),
    "euler": ("conservation_properties",
              lambda r: r._replace(betti=r.betti[:-1] + (2,)),
              "euler characteristic not conserved"),
}


@pytest.mark.parametrize("branch", sorted(FAILURE_BRANCHES))
def test_each_failure_branch_reports_its_detail(branch):
    name, doctor, detail = FAILURE_BRANCHES[branch]
    assert CHECKS[name](_pipeline(doctor(RESULT()))) == (False, detail)


def _off_diagonal(lattice):
    """`lattice` with its diagonal effective elements replaced by repeats of
    the others, so the effective order stays."""
    off = [m for m in lattice.effective
           if any(m[i][j] for i in range(3) for j in range(3) if i != j)]
    return lattice._replace(effective=tuple(off + off[:len(lattice.effective) - len(off)]))


# the same for the checks of the fan and groups alone, which read no result:
# (check, the function of `verify` replaced, its replacement made from the
# original, the expected detail)
SUBSTITUTED_BRANCHES = {
    "census-classes": ("orbit_census", "classify_orbits",
                       lambda f: lambda d: f(d)._replace(orbits=f(d).orbits[:1]),
                       "dimension 3: 1 classes"),
    "census-cusp-ranks": ("orbit_census", "classify_orbits",
                          lambda f: lambda d: f(d)._replace(
                              orbits=tuple(o._replace(cusp_rank=3) for o in f(d).orbits)),
                          "dimension-3 cusp ranks [3, 3]"),
    "census-random-images": ("orbit_census", "equivalent",
                             lambda f: lambda c1, c2: f(c1, c1)._replace(verdict="inequivalent"),
                             "a1 not matched with a random image"),
    "local-orders": ("local_cone_symmetries", "stabilizer",
                     lambda f: lambda c: f(c)._replace(elements=f(c).elements[:24]),
                     "orders 24/24"),
    "local-diagonal": ("local_cone_symmetries", "stratum_character_lattice",
                       lambda f: lambda c: _off_diagonal(f(c)),
                       "diagonal part has order 0"),
    "product-order": ("product_symmetry", "group_closure",
                      lambda f: lambda rep: f(rep)[:6],
                      "group order 6"),
    "product-element-orders": ("product_symmetry", "element_order",
                               lambda f: lambda m: 1,
                               "no element of order 6"),
    "composition": ("conservation_properties", "act_on_form",
                    lambda f: lambda g, q: f(g.inverse(), q),
                    "composition law fails"),
    "pairing": ("conservation_properties", "dual_action_on_characters",
                lambda f: lambda g, chars: tuple(chars),
                "pairing is not invariant"),
}


@pytest.mark.parametrize("branch", sorted(SUBSTITUTED_BRANCHES))
def test_each_fan_and_group_failure_branch_reports_its_detail(monkeypatch, branch):
    name, attr, substitute, detail = SUBSTITUTED_BRANCHES[branch]
    monkeypatch.setattr(verify, attr, substitute(getattr(verify, attr)))
    assert CHECKS[name](pipeline) == (False, detail)


def _reference_random_unimodular(rng):
    """The same draws as `verify.random_unimodular`, multiplied out as
    GroupElements: a sign change times six elementary matrices."""
    g = GroupElement(((rng.choice((1, -1)), 0, 0), (0, 1, 0), (0, 0, 1)))
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        rows = [[int(r == c) for c in range(3)] for r in range(3)]
        rows[i][j] = rng.choice((-2, -1, 1, 2))
        g = g * GroupElement(rows)
    return g


@pytest.mark.parametrize("seed", [0, 1, 2, verify._SEED])
def test_random_unimodular_is_the_product_of_its_elementary_matrices(seed):
    rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert verify.random_unimodular(rng) == _reference_random_unimodular(reference)
    assert rng.getstate() == reference.getstate()


def _registry_with_extra_entry(label):
    """The packaged registry data with one extra entry on the stored page `label`."""
    data = json.loads(resources.files("avor3").joinpath("data/paper_data.json").read_text())
    page = next(p for p in data["pages"] if p["label"] == label)
    page["entries"].append({"p": 9, "q": 9, "classes": [{"tate": 1}]})
    return data


def _extra_beta3_invariant(monkeypatch):
    """The one stratum of torus dimension 1 (a1,a2,a3,b1,b2) gains an H^1
    invariant, so `rank_three_locus` raises."""
    molien = strata.exterior_invariant_dims
    monkeypatch.setattr(strata, "exterior_invariant_dims",
                        lambda rep: (1, 1) if rep.dimension == 1 else molien(rep))


def test_stratum_invariants_fails_when_molien_ignores_the_sign_character(monkeypatch):
    # every other random representation carries the determinant character
    molien = verify.exterior_invariant_dims
    monkeypatch.setattr(verify, "exterior_invariant_dims",
                        lambda rep: molien(rep._replace(signs=None)))
    ok, detail = CHECKS["stratum_invariants"](pipeline)
    assert (ok, detail) == (False, "dual-route disagreement on a random representation")


def test_orbit_census_fails_when_a_stabilizer_order_is_off(monkeypatch):
    # the mass formula 1/48 - 1/24 - 1/48 + 1/16 - 1/48 = 0 over the orders
    # in dimensions 3, 4, 4, 5, 6; reading the a1,a2,a3,b1 stabilizer as of
    # order 48 (it has 24) leaves 1/48
    stabilizer = verify.stabilizer

    def doubled(cone):
        stab = stabilizer(cone)
        if cone.name() == "a1,a2,a3,b1":
            return stab._replace(elements=stab.elements * 2)
        return stab

    monkeypatch.setattr(verify, "stabilizer", doubled)
    ok, detail = CHECKS["orbit_census"](pipeline)
    assert (ok, detail) == (False, "mass formula gives 1/48, not 0")


def test_pipeline_error_fails_exactly_the_result_readers():
    # a rank-1 error fails the rank-1 check and the readers of the whole result
    results = verify.run_all(parse_registry(_registry_with_extra_entry("kummer_e2_expected")))
    failed = {name: detail for name, ok, detail in results if not ok}
    assert set(failed) == WHOLE | {"rank_one_pipeline"}
    assert all(d.startswith("raised ExpectedPageMismatch: ") for d in failed.values())
    assert len(results) - len(failed) == 8


def test_a_stratum_with_an_extra_invariant_fails_the_pipeline(monkeypatch, capsys):
    _extra_beta3_invariant(monkeypatch)
    message = "stratum of a1,a2,a3,b1,b2 has stabilizer invariants (1, 1)"
    with pytest.raises(strata.InvariantNotConcentrated, match=re.escape(message)):
        strata.rank_three_locus()
    assert cli.main(["betti", "avor3"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s\n" % message)
    assert cli.main(["verify", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = {line.split()[1] for line in lines if line.startswith("FAIL ")}
    assert failed == WHOLE | {"stratum_invariants", "rank_three_attribution"}
    assert lines[-1] == "7/12 checks passed"


# a stored page with an extra entry, or a rank-3 stratum with an extra
# invariant -> the checks beyond WHOLE that fail: 8, 8, 9 and 7 of 12 pass
BROKEN = {
    "kummer_e2_expected": {"rank_one_pipeline"},
    "cstar_bundle_e2": {"rank_two_pipeline"},
    "main_e1_expected": set(),
    "beta3_invariant": {"stratum_invariants", "rank_three_attribution"},
}


@pytest.mark.parametrize("broken", sorted(BROKEN))
def test_a_broken_locus_fails_its_readers_and_the_whole_result(monkeypatch, broken):
    if broken == "beta3_invariant":
        _extra_beta3_invariant(monkeypatch)
        registry = REGISTRY
    else:
        registry = parse_registry(_registry_with_extra_entry(broken))
    failed = {name for name, ok, _ in verify.run_all(registry) if not ok}
    assert failed == WHOLE | BROKEN[broken]


def _count_calls(monkeypatch, module, name, calls):
    """Record the first argument of every call of `module.name` in `calls`."""
    fn = getattr(module, name)

    def counted(first, *args):
        calls.append(first)
        return fn(first, *args)

    monkeypatch.setattr(module, name, counted)


def test_pipeline_error_is_raised_once_and_shared(monkeypatch):
    loci, assembled = [], []
    _count_calls(monkeypatch, strata, "locus", loci)
    _count_calls(monkeypatch, strata, "compactification_betti", assembled)
    verify.run_all(REGISTRY)
    # each locus once, in column order, and the whole result once from them
    assert loci == list(reversed(strata.STRATUM_NAMES))
    assert assembled == [REGISTRY]
    loci.clear()
    assembled.clear()
    results = verify.run_all(parse_registry(_registry_with_extra_entry("kummer_e2_expected")))
    # nothing is assembled after a locus error, which the whole result shares
    assert loci == list(reversed(strata.STRATUM_NAMES))
    assert assembled == []
    raised = "raised ExpectedPageMismatch: assembled rank-1 page differs from the stored cross-check"
    assert results == [
        ("betti_vector", False, raised),
        ("main_page_resolution", False, raised),
        ("orbit_census", True, "classes per dimension 1:1 2:1 3:2 4:2 5:1 6:1, "
                               "mass formula 0 over 5 stabilizers"),
        ("local_cone_symmetries", True, "order 48, effective 24 = 4 diagonal x 6"),
        ("distinguished_dim4_symmetry", True, "a1,a2,a3,b1 carries the order-12 action"),
        ("stratum_invariants", True, "4 stratum actions concentrated, "
                                     "50 random dual-route checks"),
        ("rank_one_pipeline", False, raised),
        ("rank_two_pipeline", True,
         "known rank-1 differential applied, two-column page resolved"),
        ("rank_three_attribution", True, "5 strata attributed across dimensions 3..6"),
        ("torus_coordinates", True, "six dual characters reproduced"),
        ("product_symmetry", True, "order 12 with an order-6 element, invariants 1 0 1 0 1"),
        ("conservation_properties", False, raised),
    ]


def test_verify_all_on_a_bad_registry_reports_8_of_12(tmp_path, capsys):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(_registry_with_extra_entry("kummer_e2_expected")))
    code = cli.main(["verify", "all", "--registry", str(path)])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-1] == "8/12 checks passed"
