"""End-to-end acceptance: every published value is recomputed exactly.

One test per criterion; each delegates to the matching named check in
avor3.verify, so `avor3 verify all` and this suite can never drift apart.
All of them read one pipeline result, as `run_all` does.  A second group
feeds each result-reading check a doctored result and expects it to fail.
"""

import json
import random
import re
from functools import cache, partial
from importlib import resources

import pytest

from avor3 import cli, strata, verify
from avor3.forms import GroupElement
from avor3.mhs import CohomologyTable
from avor3.registry import load_registry, parse_registry

REGISTRY = load_registry()
CHECKS = dict(verify.ALL_CHECKS)
PIPELINE = cache(partial(strata.compactification_betti, REGISTRY))


def _run(name):
    ok, detail = CHECKS[name](PIPELINE)
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


# check name -> the shared result with the one field that check reads doctored
DOCTORED = {
    "betti_vector": lambda r: r._replace(betti=(1,) + r.betti[1:-1] + (2,)),
    "main_page_resolution": lambda r: r._replace(limit=r.page),
    "stratum_invariants": lambda r: r._replace(
        beta3=r.beta3._replace(contributions=r.beta3.contributions[:3])),
    "rank_one_pipeline": lambda r: r._replace(beta1=r.beta1._replace(table=r.beta2.table)),
    "rank_two_pipeline": lambda r: r._replace(beta2=r.beta2._replace(table=r.beta3.table)),
    "rank_three_attribution": lambda r: r._replace(
        beta3=r.beta3._replace(contributions=r.beta3.contributions[1:])),
    "conservation_properties": lambda r: r._replace(
        tables=dict(r.tables, a3=CohomologyTable("a3", ()))),
}


@pytest.mark.parametrize("name", sorted(DOCTORED))
def test_result_reading_check_fails_on_doctored_result(name):
    doctored = DOCTORED[name](PIPELINE())
    ok, detail = CHECKS[name](lambda: doctored)
    assert ok is False, detail


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


def _bad_kummer_page_registry():
    data = json.loads(resources.files("avor3").joinpath("data/paper_data.json").read_text())
    page = next(p for p in data["pages"] if p["label"] == "kummer_e2_expected")
    page["entries"].append({"p": 9, "q": 9, "classes": [{"tate": 1}]})
    return data


def test_stratum_invariants_fails_when_molien_ignores_the_sign_character(monkeypatch):
    # every other random representation carries the determinant character
    molien = verify.exterior_invariant_dims
    monkeypatch.setattr(verify, "exterior_invariant_dims",
                        lambda rep: molien(rep._replace(signs=None)))
    ok, detail = CHECKS["stratum_invariants"](PIPELINE)
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
    ok, detail = CHECKS["orbit_census"](PIPELINE)
    assert (ok, detail) == (False, "mass formula gives 1/48, not 0")


def test_pipeline_error_fails_exactly_the_result_readers():
    results = verify.run_all(parse_registry(_bad_kummer_page_registry()))
    failed = {name: detail for name, ok, detail in results if not ok}
    assert set(failed) == set(DOCTORED)
    assert all(d.startswith("raised ExpectedPageMismatch: ") for d in failed.values())
    assert len(results) - len(failed) == 5


def test_a_stratum_with_an_extra_invariant_fails_the_pipeline(monkeypatch, capsys):
    # the one stratum of torus dimension 1 (a1,a2,a3,b1,b2) gains an H^1 invariant
    molien = strata.exterior_invariant_dims
    monkeypatch.setattr(strata, "exterior_invariant_dims",
                        lambda rep: (1, 1) if rep.dimension == 1 else molien(rep))
    message = "stratum of a1,a2,a3,b1,b2 has stabilizer invariants (1, 1)"
    with pytest.raises(strata.InvariantNotConcentrated, match=re.escape(message)):
        strata.rank_three_locus()
    assert cli.main(["betti", "avor3"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s\n" % message)
    assert cli.main(["verify", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = {line.split()[1] for line in lines if line.startswith("FAIL ")}
    assert failed == set(DOCTORED)
    assert lines[-1] == "5/12 checks passed"


def test_pipeline_error_is_raised_once_and_shared(monkeypatch):
    calls, compactification_betti = [], strata.compactification_betti

    def counted(registry):
        calls.append(registry)
        return compactification_betti(registry)

    monkeypatch.setattr(strata, "compactification_betti", counted)
    results = verify.run_all(parse_registry(_bad_kummer_page_registry()))
    assert len(calls) == 1
    raised = "raised ExpectedPageMismatch: assembled rank-1 page differs from the stored cross-check"
    assert results == [
        ("betti_vector", False, raised),
        ("main_page_resolution", False, raised),
        ("orbit_census", True, "classes per dimension 1:1 2:1 3:2 4:2 5:1 6:1, "
                               "mass formula 0 over 5 stabilizers"),
        ("local_cone_symmetries", True, "order 48, effective 24 = 4 diagonal x 6"),
        ("distinguished_dim4_symmetry", True, "a1,a2,a3,b1 carries the order-12 action"),
        ("stratum_invariants", False, raised),
        ("rank_one_pipeline", False, raised),
        ("rank_two_pipeline", False, raised),
        ("rank_three_attribution", False, raised),
        ("torus_coordinates", True, "six dual characters reproduced"),
        ("product_symmetry", True, "order 12 with an order-6 element, invariants 1 0 1 0 1"),
        ("conservation_properties", False, raised),
    ]


def test_verify_all_on_a_bad_registry_reports_5_of_12(tmp_path, capsys):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(_bad_kummer_page_registry()))
    code = cli.main(["verify", "all", "--registry", str(path)])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-1] == "5/12 checks passed"
