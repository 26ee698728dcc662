import json
from collections import Counter
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from avor3.mhs import CohomologyTable, MhsVector
from avor3.registry import load_registry
from avor3.ssengine import (AmbiguousResolution, DifferentialDecision,
                            EnumerationCapExceeded, KnownDifferential,
                            NoConsistentAssignment, ResolutionCandidate,
                            ResolutionReport, SSPage, SplitNotJustified, abutment,
                            gysin_split, leray_assemble, resolve)

T = MhsVector.tate


def test_page_normalization_and_json_roundtrip():
    page = SSPage.from_dict(2, {(1, 0): T(1), (0, 0): MhsVector()},
                            knowns=(KnownDifferential(2, 1, 0, 0, "somewhere"),),
                            label="p")
    assert [pq for pq, _ in page.entries] == [(1, 0)]
    again = SSPage.from_json_dict(json.loads(json.dumps(page.to_json_dict())))
    assert again.entries == page.entries
    assert again.knowns == page.knowns
    assert again.label == "p"
    with pytest.raises(ValueError):
        SSPage(1, (((0, 0), T(0)), ((0, 0), T(1))))


def test_repeated_known_differential_is_rejected():
    # of two knowns at one differential, the later one used to decide the rank
    entries = {(0, 0): T(0), (1, 0): T(0)}
    for ranks in ((0, 1), (1, 0)):
        knowns = tuple(KnownDifferential(1, 0, 0, rank, "ref %d" % rank) for rank in ranks)
        with pytest.raises(ValueError, match=r"^repeated known differential d_1 at \(0,0\)$"):
            SSPage.from_dict(1, entries, knowns=knowns)


@given(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 1), st.integers(0, 1),
                          st.integers(0, 1)), max_size=4))
def test_a_page_takes_at_most_one_known_per_differential(knowns):
    ks = tuple(KnownDifferential(r, p, q, rank, "ref") for r, p, q, rank in knowns)
    if len({k[:3] for k in knowns}) < len(knowns):
        with pytest.raises(ValueError, match="repeated known differential"):
            SSPage(1, (), ks)
    else:
        assert SSPage(1, (), ks).knowns == ks


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


# (r, p, q, rank); a page holds at most one known differential per (r, p, q)
_KNOWNS = st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3),
                             st.integers(0, 2)), max_size=2, unique_by=lambda k: k[:3])


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
@given(_ENTRIES, _KNOWNS)
def test_pages_survive_a_json_round_trip(entries, knowns):
    page = SSPage.from_dict(
        1, {pq: MhsVector.from_classes(c) for pq, c in entries.items()},
        knowns=tuple(KnownDifferential(r, p, q, rank, "ref") for r, p, q, rank in knowns),
        label="round")
    text = json.dumps(page.to_json_dict(), sort_keys=True)
    again = SSPage.from_json_dict(json.loads(text))
    assert again == page
    assert json.dumps(again.to_json_dict(), sort_keys=True) == text


# --- the enumeration as it stood before states became plain pairs -------------
# kept only as an oracle: it works on MhsVectors throughout and cancels one
# weight-w dimension at a time

def _reference_remove_weight(vec, w):
    if w % 2 == 0 and (w // 2) in vec.tates:
        t = list(vec.tates)
        t.remove(w // 2)
        return MhsVector(tuple(t), vec.f_count)
    if vec.f_count and w in (0, 6):
        left = 3 if w == 0 else 0
        return MhsVector(vec.tates + (left,), vec.f_count - 1)
    raise ValueError("no weight-%d piece to remove" % w)


def _weight_overlap_candidates(entries, r):
    out = []
    for (p, q), src in sorted(entries.items()):
        tgt = entries.get((p + r, q - r + 1))
        if tgt is None:
            continue
        sc, tc = Counter(src.weights()), Counter(tgt.weights())
        caps = {w: min(sc[w], tc[w]) for w in sorted(set(sc) & set(tc))}
        if caps:
            out.append(((p, q), caps))
    return out


def _apply_removals(entries, removals):
    out = dict(entries)
    for pq, cnt in removals.items():
        vec = out.get(pq, MhsVector())
        for w, k in cnt.items():
            for _ in range(k):
                try:
                    vec = _reference_remove_weight(vec, w)
                except ValueError:
                    return None
        if vec.is_zero():
            out.pop(pq, None)
        else:
            out[pq] = vec
    return out


def _is_pure(entries):
    return all(w == p + q for (p, q), v in entries.items() for w in v.weights())


def _reference_resolve(page, cap=10 ** 6):
    """(report, None) or (None, exception type), as `resolve` decides."""
    known_map = {(k.r, k.p, k.q): k for k in page.knowns}
    support = [pq for pq, _ in page.entries]
    rset = {p2 - p1 for (p1, q1) in support for (p2, q2) in support
            if p2 - p1 >= max(page.r, 1) and q2 - q1 == 1 - (p2 - p1)}
    rset.update(k.r for k in page.knowns if k.r >= max(page.r, 1))
    rset = sorted(rset)
    final_r = (max(rset) + 1) if rset else page.r
    states = [(dict(page.entries), ())]
    enumerated = 1
    for r in rset:
        nxt = []
        for entries, decisions in states:
            cands = _weight_overlap_candidates(entries, r)
            cand_pos = {pq for pq, _ in cands}
            if any(k.rank > 0 and k.r == r and (k.p, k.q) not in cand_pos
                   for k in page.knowns):
                continue
            options = []
            for (p, q), caps in cands:
                ws = sorted(caps)
                vecs = [dict(zip(ws, combo))
                        for combo in iproduct(*[range(caps[w] + 1) for w in ws])]
                known = known_map.get((r, p, q))
                if known is not None:
                    vecs = [v for v in vecs if sum(v.values()) == known.rank]
                    kind, citation = "known", known.citation
                else:
                    kind, citation = "solver", ""
                options.append(((p, q), vecs, kind, citation))
            count = 1
            for _, vecs, _, _ in options:
                count *= len(vecs)
            enumerated += count
            if enumerated > cap:
                return None, EnumerationCapExceeded
            for combo in iproduct(*[opt[1] for opt in options]):
                removals = {}
                for ((p, q), _, _, _), vec in zip(options, combo):
                    for w, k in vec.items():
                        if k:
                            removals.setdefault((p, q), Counter())[w] += k
                            removals.setdefault((p + r, q - r + 1), Counter())[w] += k
                new_entries = _apply_removals(entries, removals)
                if new_entries is None:
                    continue
                new_decisions = decisions + tuple(
                    DifferentialDecision(r, p, q, sum(vec.values()), kind, citation)
                    for ((p, q), _, kind, citation), vec in zip(options, combo))
                nxt.append((new_entries, new_decisions))
        states = nxt
        if not states:
            break
    if page.abutment_smooth_proper:
        states = [(e, d) for e, d in states if _is_pure(e)]
    if not states:
        return None, NoConsistentAssignment
    seen = {}
    for entries, decisions in states:
        key = tuple(sorted(entries.items()))
        if key not in seen:
            seen[key] = decisions
    candidates = tuple(ResolutionCandidate(k, v) for k, v in seen.items())
    return ResolutionReport(page.label, page.abutment_smooth_proper, final_r,
                            candidates, enumerated), None


def _outcome(page, cap=10 ** 6):
    """(report, None) or (None, exception type) from `resolve`."""
    try:
        return resolve(page, cap=cap)[1], None
    except AmbiguousResolution as exc:
        return exc.report, None
    except (NoConsistentAssignment, EnumerationCapExceeded) as exc:
        return None, type(exc)


@settings(max_examples=300, deadline=None)
@given(_ENTRIES, _KNOWNS, st.booleans(), st.integers(1, 40))
def test_resolve_matches_the_reference_enumeration(entries, knowns, purity, cap):
    page = SSPage.from_dict(
        1, {pq: MhsVector.from_classes(c) for pq, c in entries.items()},
        knowns=tuple(KnownDifferential(r, p, q, rank, "ref") for r, p, q, rank in knowns),
        abutment_smooth_proper=purity, label="ref")
    # equal reports have equal final pages, counts, and candidate entries and
    # decisions in order
    for limit in (10 ** 6, cap):
        assert _outcome(page, limit) == _reference_resolve(page, limit)


def _weight_graded_euler(entries):
    """{w: sum over entries of (-1)^(p+q) dim Gr^W_w}, zero values dropped."""
    out = Counter()
    for (p, q), v in entries:
        for w in v.weights():
            out[w] += (-1) ** (p + q)
    return {w: e for w, e in out.items() if e}


@settings(max_examples=200, deadline=None)
@given(_ENTRIES, _KNOWNS, st.booleans())
def test_every_candidate_keeps_the_weight_graded_euler_characteristic(entries, knowns,
                                                                      purity):
    page = SSPage.from_dict(
        1, {pq: MhsVector.from_classes(c) for pq, c in entries.items()},
        knowns=tuple(KnownDifferential(r, p, q, rank, "ref") for r, p, q, rank in knowns),
        abutment_smooth_proper=purity)
    before = _weight_graded_euler(page.entries)
    report, _ = _outcome(page)
    for candidate in (report.candidates if report else ()):
        assert _weight_graded_euler(candidate.entries) == before


def test_cap_admits_exactly_the_enumerated_count():
    # the main registry page, and a small page whose count sums several
    # states on each of two pages
    ambiguous = SSPage.from_dict(1, {(0, 0): T(0) + T(1), (1, 0): T(0) + T(1),
                                     (0, 1): T(1), (2, 0): T(1) + T(1)})
    assert len(_outcome(ambiguous)[0].candidates) > 1
    for page in (load_registry().page("main_e1_expected"), ambiguous):
        report, _ = _outcome(page)
        assert _outcome(page, report.enumerated) == (report, None)
        assert _outcome(page, report.enumerated - 1) == (None, EnumerationCapExceeded)
