import json

import pytest
from hypothesis import given, settings, strategies as st

from avor3.equivariant import LinearRep, exterior_invariant_dims, group_closure
from avor3.mhs import (CohomologyTable, MhsVector, UnsupportedTwist, weight_counts,
                       weight_graded_euler)
from avor3.registry import Registry, load_registry, parse_registry
from avor3.ssengine import SSPage, abutment, leray_assemble
from avor3 import strata
from avor3.strata import ExpectedPageMismatch, InvariantNotConcentrated, invariant_fiber_table

T = MhsVector.tate
F = MhsVector(f_count=1)


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def test_packaged_registry_contents(registry):
    assert set(registry.tables) == {"a3_open", "a2", "a2_v11", "modular_line",
                                    "product_family_invariant",
                                    "product_family_signed"}
    assert set(registry.fibers) == {"kummer_fiber", "cstar_fiber"}
    assert set(registry.knowns) == {"cstar_bundle_d2"}
    assert set(registry.pages) == {"kummer_e2_expected", "cstar_bundle_e2",
                                   "main_e1_expected"}
    known = registry.known("cstar_bundle_d2")
    assert (known.r, known.p, known.q, known.rank) == (2, 2, 2, 1)
    assert known.citation
    # every imported table cites its source
    assert all(rt.citation for rt in registry.tables.values())
    assert dict(registry.table("a3_open").table.entries) == \
        {6: F, 8: T(4), 10: T(5), 12: T(6)}


def test_registry_lookup_errors(registry):
    for lookup, kind in ((registry.table, "table"), (registry.fiber, "fibration"),
                         (registry.known, "known differential"), (registry.page, "page")):
        with pytest.raises(ValueError) as exc:
            lookup("nope")
        assert str(exc.value) == "registry %r has no %s 'nope'" % (registry.source, kind)


def test_parse_registry_rejects_bad_data():
    with pytest.raises(ValueError):
        parse_registry({"format": "other/1"})
    base = {"format": "avor3-registry/1",
            "tables": [{"label": "t", "citation": "c",
                        "entries": [{"degree": 0, "classes": [{"tate": 0, "mult": 1}]}]}]}
    dup = dict(base, tables=base["tables"] * 2)
    with pytest.raises(ValueError):
        parse_registry(dup)
    bad_fiber = dict(base, fibers={"f": [[0, "missing", 0]]})
    with pytest.raises(ValueError):
        parse_registry(bad_fiber)


_ALT_REGISTRY = {"format": "avor3-registry/1",
                 "tables": [{"label": "only", "citation": "c",
                             "entries": [{"degree": 1,
                                          "classes": [{"tate": 0, "mult": 1}]}]}]}


def test_registry_explicit_path(tmp_path):
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(_ALT_REGISTRY))
    alt = load_registry(str(path))
    assert set(alt.tables) == {"only"}
    assert alt.source == str(path)


def test_registry_environment_variable_is_ignored(tmp_path, monkeypatch, registry):
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(_ALT_REGISTRY))
    monkeypatch.setenv("VORONOI_STRATA_REGISTRY", str(path))
    assert load_registry() == registry


EXPECTED_TABLES = {
    "a3": {6: F, 8: T(4), 10: T(5), 12: T(6)},
    "beta1": {4: T(2), 5: T(0), 6: T(3) + T(3), 8: T(4) + T(4), 10: T(5)},
    "beta2": {2: T(1), 4: T(2), 6: T(3) + T(3), 8: T(4)},
    "beta3": {0: T(0), 2: T(1), 4: T(2) + T(2), 6: T(3)},
}


@pytest.mark.parametrize("name", sorted(EXPECTED_TABLES))
def test_stratum_tables_frozen(name, registry):
    table = strata.locus(name, registry).table
    assert dict(table.entries) == EXPECTED_TABLES[name]
    assert table.label == name
    assert sum(weight_graded_euler(table.entries).values()) == 5


def test_stratum_table_rejects_unknown_name(registry):
    with pytest.raises(ValueError):
        strata.locus("beta4", registry)


def test_each_locus_runs_through_the_module_globals(monkeypatch, registry):
    # a producer reached through the module's globals is the one a patch of
    # the module attribute replaces; one held elsewhere would escape the patch
    calls = []
    for rank, producer in ((1, "rank_one_locus"), (2, "rank_two_locus"),
                           (3, "rank_three_locus")):
        fn = getattr(strata, producer)

        def counted(*args, rank=rank, fn=fn):
            calls.append(rank)
            return fn(*args)

        monkeypatch.setattr(strata, producer, counted)
    strata.compactification_betti(registry)
    assert calls == [3, 2, 1]  # once each, in column order
    for rank, name in enumerate(strata.STRATUM_NAMES):
        calls.clear()
        strata.locus(name, registry)
        assert calls == ([rank] if rank else [])


def test_rank_three_contributions(registry):
    result = strata.rank_three_locus()
    got = {(c.cone_name, c.cone_dim, c.stratum_dim, c.degree)
           for c in result.contributions}
    assert got == {
        ("a1,a2,a3", 3, 3, 6),
        ("a1,a2,a3,b1", 4, 2, 4),
        ("a1,a2,b1,b2", 4, 2, 4),
        ("a1,a2,a3,b1,b2", 5, 1, 2),
        ("a1,a2,a3,b1,b2,b3", 6, 0, 0),
    }


def test_rank_one_page_degenerates(registry):
    result = strata.rank_one_locus(registry)
    assert result.limit.entries == result.page.entries
    assert weight_counts(result.table.entry(5)) == {0: 1}


def test_rank_two_uses_the_known_differential(registry):
    result = strata.rank_two_locus(registry)
    used = [d for d in result.report.candidates[0].decisions if d.rank]
    assert len(used) == 1 and used[0].kind == "known"
    assert dict(result.torus_table.entries) == {6: T(3), 8: T(4)}
    assert dict(result.product_table.entries) == {2: T(1), 4: T(2), 6: T(3)}


def test_product_symmetry_group_is_dihedral_of_order_12():
    rep = strata.product_symmetry_rep()
    assert len(group_closure(rep)) == 12
    assert exterior_invariant_dims(rep) == (1, 0, 1, 0, 1)


def test_product_factor_group_has_order_8():
    # swap of two distinct elliptic factors plus negation on each, on H^1
    swap = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    neg_first = ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    neg_second = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
    rep = LinearRep(4, (swap, neg_first, neg_second))
    assert len(group_closure(rep)) == 8
    assert exterior_invariant_dims(rep) == (1, 0, 1, 0, 1)


def test_invariant_fiber_table_rejects_odd_invariants():
    with pytest.raises(InvariantNotConcentrated):
        invariant_fiber_table(LinearRep(2, ()), "t")


# a table of degrees 0-6, each with one to three Tate classes Q(-n), n <= 3
_TATES = st.dictionaries(st.integers(0, 6), st.lists(st.integers(0, 3), min_size=1,
                                                     max_size=3), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_TATES, _TATES, st.dictionaries(st.integers(0, 6), st.integers(1, 2), max_size=2))
def test_a_product_piece_is_the_tensor_product_of_its_tables(fiber, base, atoms):
    # the route of the rank-2 product piece: each Q(-n) of fiber degree k is
    # the Leray item (k, "b", n), and the abutment of the unresolved page is
    # the degreewise tensor product, spelled out here; `atoms` adds copies of
    # F to the base, which only a twist by Q(0) leaves as they are
    table = CohomologyTable("b", [(d, MhsVector(t)) for d, t in base.items()]
                            + [(d, MhsVector(f_count=f)) for d, f in atoms.items()])
    items = [(k, "b", n) for k, tates in fiber.items() for n in tates]
    tates, f_counts = {}, {}
    for k, twists in fiber.items():
        for d, base_tates in base.items():
            tates.setdefault(k + d, []).extend(m + n for n in twists for m in base_tates)
        for d, f in atoms.items():
            f_counts[k + d] = f_counts.get(k + d, 0) + f * twists.count(0)
    if atoms and any(n for _, _, n in items):
        with pytest.raises(UnsupportedTwist, match="^the extension atom F cannot be Tate "
                                                   "twisted$"):
            leray_assemble({"b": table}, items)
        return
    expected = {d: MhsVector(tates.get(d, ()), f_counts.get(d, 0))
                for d in tates.keys() | f_counts.keys()}
    product = abutment(leray_assemble({"b": table}, items), "p")
    assert dict(product.entries) == {d: v for d, v in expected.items() if not v.is_zero()}


def test_main_first_page_layout(registry):
    result = strata.compactification_betti(registry)
    # column p holds the rank-(3 - p) locus, and the loci ran in that order
    assert list(result.loci) == list(reversed(strata.STRATUM_NAMES))
    page = result.page
    assert page.abutment_smooth_proper
    assert page.entry(3, 3) == F
    assert page.entry(2, 3) == T(0)
    assert page.entry(0, 4) == T(2) + T(2)
    # the limit is pure, so the e_w of the first page are the Betti numbers
    assert weight_graded_euler(page.entries) == {0: 1, 2: 2, 4: 4, 6: 6, 8: 4, 10: 2, 12: 1}


def test_compactification_betti(registry):
    result = strata.compactification_betti(registry)
    assert result.betti == (1, 0, 2, 0, 4, 0, 6, 0, 4, 0, 2, 0, 1)
    assert sum(result.betti) == 20
    assert result.table.label == "avor3"


def test_doctored_fiber_table_trips_the_cross_check(registry):
    bad_a2 = registry.tables["a2"]._replace(
        table=CohomologyTable("a2", ((4, T(2)), (6, T(3)), (7, T(0)))))
    doctored = registry._replace(tables=dict(registry.tables, a2=bad_a2), source="doctored")
    with pytest.raises(ExpectedPageMismatch):
        strata.rank_one_locus(doctored)


def test_doctored_stored_page_trips_the_cross_check(registry):
    stored = registry.page("kummer_e2_expected")
    bad = SSPage(stored.r, stored.entries + (((9, 9), T(1)),), label=stored.label)
    doctored = registry._replace(pages=dict(registry.pages, kummer_e2_expected=bad),
                                 source="doctored")
    with pytest.raises(ExpectedPageMismatch):
        strata.rank_one_locus(doctored)


def test_registry_without_cross_check_pages_still_works(registry):
    pages = {k: v for k, v in registry.pages.items() if k != "kummer_e2_expected"}
    slim = registry._replace(pages=pages, source="slim")
    result = strata.rank_one_locus(slim)
    assert dict(result.table.entries) == EXPECTED_TABLES["beta1"]
