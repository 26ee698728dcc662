"""End-to-end acceptance: every published value is recomputed exactly.

One test per criterion; each delegates to the matching named check in
avor3.verify, so `avor3 verify all` and this suite can never drift apart.
"""

from avor3 import verify
from avor3.registry import load_registry

REGISTRY = load_registry()
CHECKS = dict(verify.ALL_CHECKS)


def _run(name):
    ok, detail = CHECKS[name](REGISTRY)
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
