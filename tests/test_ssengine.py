import json

import pytest
from hypothesis import given, settings, strategies as st

from avor3.mhs import CohomologyTable, MhsVector
from avor3.registry import load_registry
from avor3.ssengine import (AmbiguousResolution, EnumerationCapExceeded,
                            KnownDifferential, NoConsistentAssignment, SSPage,
                            SplitNotJustified, abutment, gysin_split,
                            leray_assemble, resolve)

T = MhsVector.tate


def test_page_normalization_and_json_roundtrip():
    page = SSPage.from_dict(2, {(1, 0): T(1), (0, 0): MhsVector.zero()},
                            knowns=(KnownDifferential(2, 1, 0, 0, "somewhere"),),
                            label="p")
    assert [pq for pq, _ in page.entries] == [(1, 0)]
    again = SSPage.from_json_dict(json.loads(page.to_json()))
    assert again.entries == page.entries
    assert again.knowns == page.knowns
    assert again.label == "p"
    with pytest.raises(ValueError):
        SSPage(1, (((0, 0), T(0)), ((0, 0), T(1))))


def test_known_differential_validation():
    with pytest.raises(ValueError):
        KnownDifferential(2, 0, 0, -1, "x")
    with pytest.raises(ValueError):
        KnownDifferential(2, 0, 0, 1, "")


def test_forced_zero_cases_exactly():
    # (0,0) -> (1,0): weights {0} vs {6} are disjoint, so the page is its limit
    page = SSPage.from_dict(1, {(0, 0): T(0), (1, 0): T(3), (1, 2): T(0)})
    limit, report = resolve(page)
    assert limit.entries == page.entries
    assert [(d.r, d.p, d.q, d.rank) for d in report.candidates[0].decisions] == []
    # every differential has an empty end: nothing to decide
    page = SSPage.from_dict(1, {(0, 0): T(0), (0, 3): T(0)})
    limit, report = resolve(page)
    assert (limit.entries, limit.r) == (page.entries, 1)
    assert report.candidates[0].decisions == ()
    # matching weights: rank 0 and rank 1 both survive
    page = SSPage.from_dict(1, {(0, 0): T(0), (1, 0): T(0)})
    with pytest.raises(AmbiguousResolution) as exc:
        resolve(page)
    assert len(exc.value.report.candidates) == 2


def test_resolve_degenerate_when_all_differentials_forced():
    page = SSPage.from_dict(1, {(0, 0): T(0), (1, 0): T(3)}, label="deg")
    limit, report = resolve(page)
    assert limit.entries == page.entries
    assert all(d.rank == 0 for c in report.candidates for d in c.decisions)


def test_resolve_enumerates_weight_assignments():
    # matching single weights on both ends: rank 0 or 1 both possible
    page = SSPage.from_dict(1, {(0, 0): T(0), (1, 0): T(0)})
    with pytest.raises(AmbiguousResolution) as exc:
        resolve(page)
    assert len(exc.value.report.candidates) == 2
    ranks = [sum(d.rank for d in c.decisions) for c in exc.value.report.candidates]
    assert ranks == [0, 1]  # zero assignment enumerated first


def test_resolve_multi_weight_candidates():
    v = T(0) + T(3)
    page = SSPage.from_dict(1, {(0, 0): v, (1, 0): v})
    with pytest.raises(AmbiguousResolution) as exc:
        resolve(page)
    # independent rank choice per shared weight: 2 x 2 outcomes
    assert len(exc.value.report.candidates) == 4


def test_known_rank_pins_the_total():
    v = T(0) + T(3)
    known = KnownDifferential(1, 0, 0, 2, "ref")
    page = SSPage.from_dict(1, {(0, 0): v, (1, 0): v}, knowns=(known,))
    limit, report = resolve(page)
    assert limit.entries == ()
    decision = report.candidates[0].decisions[0]
    assert (decision.kind, decision.rank, decision.citation) == ("known", 2, "ref")


def test_known_rank_partial_still_ambiguous():
    v = T(0) + T(3)
    known = KnownDifferential(1, 0, 0, 1, "ref")
    page = SSPage.from_dict(1, {(0, 0): v, (1, 0): v}, knowns=(known,))
    with pytest.raises(AmbiguousResolution) as exc:
        resolve(page)
    assert len(exc.value.report.candidates) == 2  # weight 0 or weight 6 cancelled


def test_known_rank_too_large_is_inconsistent():
    known = KnownDifferential(1, 0, 0, 2, "ref")
    page = SSPage.from_dict(1, {(0, 0): T(0), (1, 0): T(0)}, knowns=(known,))
    with pytest.raises(NoConsistentAssignment):
        resolve(page)


def test_known_positive_rank_on_forced_zero_is_inconsistent():
    known = KnownDifferential(1, 0, 0, 1, "ref")
    page = SSPage.from_dict(1, {(0, 0): T(0), (1, 0): T(3)}, knowns=(known,))
    with pytest.raises(NoConsistentAssignment):
        resolve(page)


def test_resolve_cap_raises_named_error():
    page = load_registry().page("main_e1_expected")
    with pytest.raises(EnumerationCapExceeded):
        resolve(page, cap=1)


def test_purity_filter_selects_the_pure_outcome():
    # abutment of a smooth proper space: only weight == degree survives
    page = SSPage.from_dict(1, {(0, 0): T(0), (1, 0): T(0)},
                            abutment_smooth_proper=True)
    limit, report = resolve(page)
    assert limit.entries == ()
    assert sum(d.rank for d in report.candidates[0].decisions) == 1


def test_resolve_spans_multiple_pages():
    # r=1 arrow is weight-forced to die; r=2 arrow can fire
    page = SSPage.from_dict(1, {(0, 1): T(1), (2, 0): T(1)},
                            abutment_smooth_proper=True)
    limit, report = resolve(page)
    assert limit.entries == ()
    fired = [d for c in report.candidates for d in c.decisions if d.rank]
    assert [(d.r, d.p, d.q) for d in fired] == [(2, 0, 1)]


def test_abutment_merges_total_degree():
    page = SSPage.from_dict(3, {(0, 2): T(1), (1, 1): T(1), (4, 0): T(2)}, label="x")
    table = abutment(page)
    assert dict(table.entries) == {2: T(1) + T(1), 4: T(2)}
    assert table.label == "x"


def test_gysin_split_justified_by_weights():
    open_part = CohomologyTable("open", ((6, T(3)), (8, T(4))))
    closed_part = CohomologyTable("closed", ((2, T(1)), (4, T(2)), (6, T(3))))
    merged = gysin_split(open_part, closed_part, "m")
    assert dict(merged.entries) == {2: T(1), 4: T(2), 6: T(3) + T(3), 8: T(4)}


def test_gysin_split_rejects_weight_overlap():
    open_part = CohomologyTable("open", ((2, T(0)),))
    closed_part = CohomologyTable("closed", ((1, T(0)),))
    with pytest.raises(SplitNotJustified):
        gysin_split(open_part, closed_part)


def test_leray_assemble_places_twisted_base_rows():
    base = {"b": CohomologyTable("b", ((0, T(0)), (2, T(1))))}
    page = leray_assemble(base, ((0, "b", 0), (2, "b", 1)), label="tot")
    assert dict(page.entries) == {(0, 0): T(0), (2, 0): T(1),
                                  (0, 2): T(1), (2, 2): T(2)}
    with pytest.raises(ValueError):
        leray_assemble(base, ((0, "missing", 0),))


def test_euler_characteristic_preserved_by_resolution():
    page = SSPage.from_dict(1, {(0, 0): T(0) + T(1), (1, 0): T(0) + T(2)},
                            label="chi")
    before = page.euler_characteristic()
    try:
        limit, _ = resolve(page)
        assert limit.euler_characteristic() == before
    except AmbiguousResolution as exc:
        for cand in exc.report.candidates:
            chi = sum((-1) ** (p + q) * v.dimension() for (p, q), v in cand.entries)
            assert chi == before


# small random first-quadrant pages: a few Tate classes and atoms per entry
_CLASSES = st.lists(st.one_of(st.builds(lambda n, m: {"tate": n, "mult": m},
                                        st.integers(0, 3), st.integers(1, 2)),
                              st.just({"atom": "F"})),
                    min_size=1, max_size=2)
_ENTRIES = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _CLASSES,
                           max_size=5)


def _page_json(entries, label="random"):
    return {"label": label, "page": 1, "knowns": [],
            "entries": [{"p": p, "q": q, "classes": c} for (p, q), c in entries]}


def _limits(page):
    """The set of limit pages resolve leaves (empty when none survives)."""
    try:
        _, report = resolve(page)
    except AmbiguousResolution as exc:
        report = exc.report
    except NoConsistentAssignment:
        return set()
    return {c.entries for c in report.candidates}


@settings(max_examples=100, deadline=None)
@given(_ENTRIES)
def test_every_candidate_keeps_the_euler_characteristic(entries):
    page = SSPage.from_json_dict(_page_json(sorted(entries.items())))
    before = page.euler_characteristic()
    for limit in _limits(page):
        assert SSPage(1, limit).euler_characteristic() == before


@settings(max_examples=100, deadline=None)
@given(_ENTRIES, st.randoms(use_true_random=False))
def test_candidates_do_not_depend_on_entry_order(entries, rnd):
    items = sorted(entries.items())
    shuffled = list(items)
    rnd.shuffle(shuffled)
    first = SSPage.from_json_dict(_page_json(items))
    second = SSPage.from_json_dict(_page_json(shuffled))
    assert _limits(first) == _limits(second)


@settings(max_examples=100, deadline=None)
@given(_ENTRIES)
def test_purity_on_limits_are_purity_off_limits(entries):
    data = _page_json(sorted(entries.items()))
    pure = _limits(SSPage.from_json_dict(data, abutment_smooth_proper=True))
    assert pure <= _limits(SSPage.from_json_dict(data))
    for limit in pure:
        assert all(w == p + q for (p, q), v in limit for w in v.weights())


@settings(max_examples=100, deadline=None)
@given(_ENTRIES, st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3),
                                    st.integers(0, 2)), max_size=2))
def test_pages_survive_a_json_round_trip(entries, knowns):
    page = SSPage.from_dict(
        1, {pq: MhsVector.from_classes(c) for pq, c in entries.items()},
        knowns=tuple(KnownDifferential(r, p, q, rank, "ref") for r, p, q, rank in knowns),
        label="round")
    again = SSPage.from_json_dict(json.loads(page.to_json()))
    assert again == page
    assert again.to_json() == page.to_json()
