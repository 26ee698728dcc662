import json
import time
from collections import Counter
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from avor3 import ssengine
from avor3.mhs import (CohomologyTable, Graded, MhsVector, from_weight_counts, graded,
                       weight_counts, weight_graded_euler)
from avor3.registry import load_registry
from avor3.ssengine import (AmbiguousResolution, DifferentialDecision,
                            EnumerationCapExceeded, KnownDifferential,
                            NoConsistentAssignment, ResolutionCandidate,
                            ResolutionReport, SSPage, abutment, leray_assemble,
                            resolve)
from avor3.strata import _column_page

T = MhsVector.tate


def test_page_normalization_and_json_roundtrip():
    page = SSPage(2, {(1, 0): T(1), (0, 0): MhsVector()}.items(),
                  knowns=(KnownDifferential(2, 1, 0, 0, "somewhere"),),
                  label="p")
    assert [pq for pq, _ in page.entries] == [(1, 0)]
    again = SSPage.from_json_dict(json.loads(json.dumps(page.to_json_dict())))
    assert again.entries == page.entries
    assert again.knowns == page.knowns
    assert again.label == "p"
    # vectors at one position are summed
    assert SSPage(1, (((0, 0), T(0)), ((0, 0), T(1)))).entries == (((0, 0), T(0) + T(1)),)


def test_repeated_known_differential_is_rejected():
    # of two knowns at one differential, the later one used to decide the rank
    entries = {(0, 0): T(0), (1, 0): T(0)}
    for ranks in ((0, 1), (1, 0)):
        knowns = tuple(KnownDifferential(1, 0, 0, rank, "ref %d" % rank) for rank in ranks)
        with pytest.raises(ValueError, match=r"^knowns\[1\]: repeated known "
                                             r"differential d_1 at \(0,0\)$"):
            SSPage(1, entries.items(), knowns=knowns)


def test_a_known_differential_of_an_earlier_page_is_rejected():
    # d_1 on an E_2 page used to resolve the page with no decision, so its
    # rank and citation appeared nowhere
    entries = {(0, 0): T(0), (1, 0): T(0)}
    d1, d2 = (KnownDifferential(r, 0, 0, 1, "ref") for r in (1, 2))
    with pytest.raises(ValueError, match=r"^knowns\[1\]: known differential d_1 at "
                                         r"\(0,0\) precedes page 2$"):
        SSPage(2, entries.items(), knowns=(d2, d1))
    with pytest.raises(ValueError, match=r"^knowns\[0\]: known differential d_0 at "
                                         r"\(0,0\) precedes page 1$"):
        SSPage(0, entries.items(), knowns=(KnownDifferential(0, 0, 0, 0, "ref"),))
    assert SSPage(0, entries.items(), knowns=(d1,)).knowns == (d1,)
    assert SSPage(2, entries.items(), knowns=(d2,)).knowns == (d2,)


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
    page = SSPage(1, {(0, 0): T(0), (1, 0): T(3), (1, 2): T(0)}.items())
    limit, report = resolve(page)
    assert limit.entries == page.entries
    assert [(d.r, d.p, d.q, d.rank) for d in report.candidates[0].decisions] == []
    # every differential has an empty end: nothing to decide
    page = SSPage(1, {(0, 0): T(0), (0, 3): T(0)}.items())
    limit, report = resolve(page)
    assert (limit.entries, limit.r) == (page.entries, 1)
    assert report.candidates[0].decisions == ()
    # matching weights: rank 0 and rank 1 both survive
    page = SSPage(1, {(0, 0): T(0), (1, 0): T(0)}.items())
    with pytest.raises(AmbiguousResolution) as exc:
        resolve(page)
    assert len(exc.value.report.candidates) == 2


def test_resolve_degenerate_when_all_differentials_forced():
    page = SSPage(1, {(0, 0): T(0), (1, 0): T(3)}.items(), label="deg")
    limit, report = resolve(page)
    assert limit.entries == page.entries
    assert all(d.rank == 0 for c in report.candidates for d in c.decisions)


def test_resolve_enumerates_weight_assignments():
    # matching single weights on both ends: rank 0 or 1 both possible
    page = SSPage(1, {(0, 0): T(0), (1, 0): T(0)}.items())
    with pytest.raises(AmbiguousResolution) as exc:
        resolve(page)
    assert len(exc.value.report.candidates) == 2
    ranks = [sum(d.rank for d in c.decisions) for c in exc.value.report.candidates]
    assert ranks == [0, 1]  # zero assignment enumerated first


def test_resolve_multi_weight_candidates():
    v = T(0) + T(3)
    page = SSPage(1, {(0, 0): v, (1, 0): v}.items())
    with pytest.raises(AmbiguousResolution) as exc:
        resolve(page)
    # independent rank choice per shared weight: 2 x 2 outcomes
    assert len(exc.value.report.candidates) == 4


def test_known_rank_pins_the_total():
    v = T(0) + T(3)
    known = KnownDifferential(1, 0, 0, 2, "ref")
    page = SSPage(1, {(0, 0): v, (1, 0): v}.items(), knowns=(known,))
    limit, report = resolve(page)
    assert limit.entries == ()
    decision = report.candidates[0].decisions[0]
    assert (decision.kind, decision.rank, decision.citation) == ("known", 2, "ref")


def test_known_rank_partial_still_ambiguous():
    v = T(0) + T(3)
    known = KnownDifferential(1, 0, 0, 1, "ref")
    page = SSPage(1, {(0, 0): v, (1, 0): v}.items(), knowns=(known,))
    with pytest.raises(AmbiguousResolution) as exc:
        resolve(page)
    assert len(exc.value.report.candidates) == 2  # weight 0 or weight 6 cancelled


def test_known_rank_too_large_is_inconsistent():
    known = KnownDifferential(1, 0, 0, 2, "ref")
    page = SSPage(1, {(0, 0): T(0), (1, 0): T(0)}.items(), knowns=(known,))
    with pytest.raises(NoConsistentAssignment):
        resolve(page)


def test_known_positive_rank_on_forced_zero_is_inconsistent():
    known = KnownDifferential(1, 0, 0, 1, "ref")
    page = SSPage(1, {(0, 0): T(0), (1, 0): T(3)}.items(), knowns=(known,))
    with pytest.raises(NoConsistentAssignment):
        resolve(page)


def test_a_positive_known_off_the_support_is_inconsistent():
    # d_2 (0,0) -> (2,-1) of rank 1, with no entry at (2,-1)
    known = KnownDifferential(2, 0, 0, 1, "ref")
    page = SSPage(1, {(0, 0): T(0), (1, 0): T(0)}.items(), knowns=(known,), label="off")
    with pytest.raises(NoConsistentAssignment,
                       match="^no differential assignment for 'off' survives all "
                             "constraints$"):
        resolve(page)


def test_a_known_out_of_reach_is_found_before_the_cap():
    # four d_1 blocks of three choices each, and a d_2 of rank 1 off the
    # support: the reference reaches page 2 only after 81 assignments, past
    # the cap, where nothing survives whatever the cap
    entries = {(p, q): T(0) + T(0) for p in (0, 1) for q in range(4)}
    page = SSPage(1, entries.items(), knowns=(KnownDifferential(2, 5, 5, 1, "ref"),))
    assert _reference_resolve(page, cap=5) == (None, EnumerationCapExceeded)
    assert _reference_resolve(page) == (None, NoConsistentAssignment)
    assert _outcome(page, cap=5) == (None, NoConsistentAssignment)


def _known_source_page(*knowns):
    # Q at (0,1), (1,1) and (2,0): d_1 (0,1) -> (1,1) and d_2 (0,1) -> (2,0)
    return SSPage(1, {(0, 1): T(0), (1, 1): T(0), (2, 0): T(0)}.items(),
                  knowns=knowns + (KnownDifferential(2, 0, 1, 1, "ref"),))


def test_a_state_that_empties_a_known_source_is_dropped():
    # a d_1 of rank 1 empties (0,1), so the known d_2 there has no choice on
    # page 2 and that state is dropped; d_1 of rank 0 remains
    page = _known_source_page()
    limit, report = resolve(page)
    assert limit.entries == (((1, 1), T(0)),)
    assert [(d.r, d.p, d.q, d.rank, d.kind) for d in report.candidates[0].decisions] == [
        (1, 0, 1, 0, "solver"), (2, 0, 1, 1, "known")]
    assert _summary(_outcome(page)) == _summary(_reference_resolve(page))


def test_every_state_dying_on_a_later_page_is_inconsistent():
    # a known d_1 of rank 1 empties (0,1) in every state, so every state dies
    # on page 2
    page = _known_source_page(KnownDifferential(1, 0, 1, 1, "ref"))
    with pytest.raises(NoConsistentAssignment):
        resolve(page)
    assert _reference_resolve(page) == (None, NoConsistentAssignment)


def test_resolve_cap_raises_named_error():
    page = load_registry().page("main_e1_expected")
    with pytest.raises(EnumerationCapExceeded):
        resolve(page, cap=1)


def test_purity_filter_selects_the_pure_outcome():
    # abutment of a smooth proper space: only weight == degree survives
    page = SSPage(1, {(0, 0): T(0), (1, 0): T(0)}.items(),
                  abutment_smooth_proper=True)
    limit, report = resolve(page)
    assert limit.entries == ()
    assert sum(d.rank for d in report.candidates[0].decisions) == 1


def test_resolve_spans_multiple_pages():
    # r=1 arrow is weight-forced to die; r=2 arrow can fire
    page = SSPage(1, {(0, 1): T(1), (2, 0): T(1)}.items(),
                  abutment_smooth_proper=True)
    limit, report = resolve(page)
    assert limit.entries == ()
    fired = [d for c in report.candidates for d in c.decisions if d.rank]
    assert [(d.r, d.p, d.q) for d in fired] == [(2, 0, 1)]


def test_abutment_merges_total_degree():
    page = SSPage(3, {(0, 2): T(1), (1, 1): T(1), (4, 0): T(2)}.items(), label="x")
    table = abutment(page)
    assert dict(table.entries) == {2: T(1) + T(1), 4: T(2)}
    assert table.label == "x"


def _table(*pairs):
    return CohomologyTable("t", pairs)


# small random tables of Tate classes: up to four degrees, one or two classes each
_TATE_TABLES = st.dictionaries(st.integers(0, 6), st.lists(st.integers(0, 3), min_size=1,
                                                           max_size=2), max_size=4).map(
    lambda classes: _table(*((d, MhsVector(tuple(ns))) for d, ns in classes.items())))


@settings(max_examples=200, deadline=None)
@given(_TATE_TABLES, _TATE_TABLES)
def test_a_two_column_page_resolves_to_the_degreewise_sum_or_is_ambiguous(closed, opened):
    # d_1 maps closed^(k-1) to open^k; it may be nonzero exactly when the two
    # share a weight, and then rank 0 and a positive rank both survive
    page = _column_page((closed, opened), "split")
    shared = any(set(closed.entry(k - 1).weights()) & set(v.weights())
                 for k, v in opened.entries)
    if shared:
        with pytest.raises(AmbiguousResolution):
            resolve(page)
        return
    limit, report = resolve(page)
    table = abutment(limit)
    assert table.entries == graded(closed.entries + opened.entries)
    assert type(limit.entries) is Graded and type(table.entries) is Graded
    assert not any(d.rank for d in report.candidates[0].decisions)


def _split(closed, opened, label="split"):
    limit, _ = resolve(_column_page((closed, opened), label))
    return abutment(limit)


def test_gysin_split_justified_by_weights():
    # the rank-2 locus: products closed, bundle open, weights apart in each degree
    opened = CohomologyTable("open", ((6, T(3)), (8, T(4))))
    closed = CohomologyTable("closed", ((2, T(1)), (4, T(2)), (6, T(3))))
    merged = _split(closed, opened, "m")
    assert dict(merged.entries) == {2: T(1), 4: T(2), 6: T(3) + T(3), 8: T(4)}
    assert merged.label == "m"


def test_gysin_split_sums_the_two_tables_at_one_degree():
    # two classes of degree 2, one from each column, are summed
    opened = CohomologyTable("open", ((2, T(1)), (4, T(2))))
    closed = CohomologyTable("closed", ((0, T(0)), (2, T(3))))
    split = _split(closed, opened)
    assert split.entries == ((0, T(0)), (2, T(1) + T(3)), (4, T(2)))
    assert type(split.entries) is Graded


def test_gysin_split_rejects_weight_overlap():
    # Q in degree 1 closed and in degree 2 open share weight 0, so d_1 may not vanish
    opened = CohomologyTable("open", ((2, T(0)),))
    closed = CohomologyTable("closed", ((1, T(0)),))
    with pytest.raises(AmbiguousResolution):
        _split(closed, opened)


def test_leray_assemble_places_twisted_base_rows():
    base = {"b": CohomologyTable("b", ((0, T(0)), (2, T(1))))}
    page = leray_assemble(base, ((0, "b", 0), (2, "b", 1)), label="tot")
    assert dict(page.entries) == {(0, 0): T(0), (2, 0): T(1),
                                  (0, 2): T(1), (2, 2): T(2)}
    with pytest.raises(ValueError):
        leray_assemble(base, ((0, "missing", 0),))


def _euler(entries):
    return sum(weight_graded_euler(entries).values())


def test_euler_characteristic_preserved_by_resolution():
    page = SSPage(1, {(0, 0): T(0) + T(1), (1, 0): T(0) + T(2)}.items(),
                  label="chi")
    before = _euler(page.entries)
    try:
        limit, _ = resolve(page)
        assert _euler(limit.entries) == before
    except AmbiguousResolution as exc:
        for cand in exc.report.candidates:
            assert _euler(cand.entries) == before


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
    before = _euler(page.entries)
    for limit in _limits(page):
        assert _euler(SSPage(1, limit).entries) == before


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
    page = SSPage(
        1, ((pq, MhsVector.from_classes(c)) for pq, c in entries.items()),
        knowns=tuple(KnownDifferential(r, p, q, rank, "ref") for r, p, q, rank in knowns),
        label="round")
    text = json.dumps(page.to_json_dict(), sort_keys=True)
    again = SSPage.from_json_dict(json.loads(text))
    assert again == page
    assert json.dumps(again.to_json_dict(), sort_keys=True) == text


def _reference_abutment(page, label):
    """(label, entries) of `abutment`, spelled out without `graded` or
    MhsVector addition: each diagonal's Tate pieces and F atoms collected
    first, then one vector made per degree."""
    tates, f_counts = {}, {}
    for (p, q), v in page.entries:
        tates.setdefault(p + q, []).extend(v.tates)
        f_counts[p + q] = f_counts.get(p + q, 0) + v.f_count
    return label or page.label, tuple((k, MhsVector(tuple(tates[k]), f_counts[k]))
                                      for k in sorted(tates))


# pages with several positions on most diagonals: up to eight of the 5 x 5
# positions, each holding Tate pieces, F atoms or both
_DIAGONAL_PAGES = st.builds(
    lambda entries, label: SSPage(
        3, ((pq, MhsVector.from_classes(c)) for pq, c in entries.items()), label=label),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), _CLASSES, max_size=8),
    st.sampled_from(("", "page")))


@settings(max_examples=200, deadline=None)
@given(_DIAGONAL_PAGES, st.sampled_from((None, "", "table")))
def test_abutment_sums_each_diagonal_as_the_reference_does(page, label):
    table = abutment(page, label)
    assert (table.label, table.entries) == _reference_abutment(page, label)
    assert type(table.entries) is Graded


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


@settings(max_examples=500, deadline=None)
@given(st.builds(MhsVector, st.lists(st.integers(0, 3), max_size=5), st.integers(0, 3)),
       st.lists(st.integers(0, 7), max_size=6), st.data())
def test_from_weight_counts_is_any_order_of_single_removals(vec, removals, data):
    # `resolve` subtracts the removals from the weight counts and rebuilds the
    # vector once; the reference removes one dimension at a time from the
    # vector, here in the order drawn and in a shuffled one
    counts = ssengine._cancel({**dict.fromkeys(removals, 0), **weight_counts(vec)},
                              tuple(Counter(removals).items()))
    expected = None if counts is None else from_weight_counts(counts, vec.f_count)
    for order in (removals, data.draw(st.permutations(removals))):
        folded = vec
        try:
            for w in order:
                folded = _reference_remove_weight(folded, w)
        except ValueError:
            folded = None
        assert folded == expected


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


def _summary(outcome):
    """What `resolve` and the reference must agree on: the exception type, or
    the kind, the final page and the set of (entries, decisions) pairs, with
    each candidate's decisions in (r, p, q) order on both sides."""
    report, error = outcome
    if report is None:
        return error
    kind = "ambiguous" if len(report.candidates) > 1 else "unique"
    return kind, report.final_page, frozenset((c.entries, c.decisions)
                                              for c in report.candidates)


def _check_cap(page, cap, full):
    """Under `cap`, `resolve` gives its uncapped outcome `full` or raises
    EnumerationCapExceeded, the latter exactly when the uncapped count or
    number of limit pages exceeds the cap; where nothing survives, either
    may come first."""
    capped = _outcome(page, cap)
    report, _ = full
    if report is None:
        assert capped in (full, (None, EnumerationCapExceeded))
    elif report.enumerated > cap or len(report.candidates) > cap:
        assert capped == (None, EnumerationCapExceeded)
    else:
        assert capped == full


def _reference_page(entries, knowns, purity):
    return SSPage(
        1, ((pq, MhsVector.from_classes(c)) for pq, c in entries.items()),
        knowns=tuple(KnownDifferential(r, p, q, rank, "ref") for r, p, q, rank in knowns),
        abutment_smooth_proper=purity, label="ref")


@settings(max_examples=300, deadline=None)
@given(_ENTRIES, _KNOWNS, st.booleans(), st.integers(1, 40))
def test_resolve_matches_the_reference_enumeration(entries, knowns, purity, cap):
    page = _reference_page(entries, knowns, purity)
    full = _outcome(page)
    assert _summary(full) == _summary(_reference_resolve(page))
    # the count sums over blocks where the reference multiplies, so each is
    # capped on its own count
    _check_cap(page, cap, full)


# larger pages, many differentials on each: the reference runs only under a
# small cap, so its enumeration stays short
_WIDE_ENTRIES = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), _CLASSES,
                                max_size=10)
_WIDE_KNOWNS = st.lists(st.tuples(st.integers(1, 5), st.integers(0, 5), st.integers(0, 5),
                                  st.integers(0, 2)), max_size=2, unique_by=lambda k: k[:3])


@settings(max_examples=150, deadline=None)
@given(_WIDE_ENTRIES, _WIDE_KNOWNS, st.booleans(), st.integers(1, 1000))
def test_resolve_matches_the_reference_enumeration_on_wide_pages(entries, knowns, purity,
                                                                 cap):
    page = _reference_page(entries, knowns, purity)
    full = _outcome(page)
    reference = _reference_resolve(page, cap)
    if reference != (None, EnumerationCapExceeded):
        assert _summary(full) == _summary(reference)
    _check_cap(page, cap, full)


@settings(max_examples=200, deadline=None)
@given(_WIDE_ENTRIES, _WIDE_KNOWNS, st.booleans())
def test_every_candidates_decisions_increase_strictly_in_r_p_q(entries, knowns, purity):
    # a candidate decides each differential d_r at (p, q) once, so a plain
    # sort of its decisions never compares past (r, p, q)
    report, _ = _outcome(_reference_page(entries, knowns, purity), 1000)
    for candidate in (report.candidates if report else ()):
        keys = [(d.r, d.p, d.q) for d in candidate.decisions]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_a_failed_removal_drops_the_extensions_of_its_partial_assignment():
    # (0,0) -> (1,0) -> (2,0) on page 1: the middle class can die only once,
    # so of the four assignments the one firing both differentials fails
    page = SSPage(1, {(0, 0): T(0), (1, 0): T(0), (2, 0): T(0)}.items(), label="chain")
    report, _ = _outcome(page)
    assert report == _reference_resolve(page)[0]
    assert (report.final_page, report.enumerated) == (2, 5)
    assert [[d.rank for d in c.decisions] for c in report.candidates] == [[0, 0], [0, 1],
                                                                          [1, 0]]
    assert [[pq for pq, _ in c.entries] for c in report.candidates] == [
        [(0, 0), (1, 0), (2, 0)], [(0, 0)], [(2, 0)]]


def test_an_unreachable_known_rank_stops_the_page_before_any_expansion(monkeypatch):
    # six arrows (0,i) -> (1,i) of four choices each come first; the last
    # arrow's known rank 9 is out of reach of its one shared dimension, so
    # nothing survives and not one partial assignment may be built
    entries = {(p, i): T(0) + T(0) + T(0) for p in (0, 1) for i in range(6)}
    entries.update({(0, 6): T(0), (1, 6): T(0)})
    page = SSPage(1, entries.items(), knowns=(KnownDifferential(1, 0, 6, 9, "ref"),))
    calls = []
    cancel = ssengine._cancel
    monkeypatch.setattr(ssengine, "_cancel", lambda *a: calls.append(a) or cancel(*a))
    assert _outcome(page) == _reference_resolve(page) == (None, NoConsistentAssignment)
    assert calls == []


class _CountedKnown(KnownDifferential):
    """A known differential that counts the reads of its fields."""
    reads = 0

    def __getattribute__(self, name):
        if name in ("r", "p", "q", "rank"):
            _CountedKnown.reads += 1
        return super().__getattribute__(name)


def _known_field_reads(n):
    _CountedKnown.reads = 0
    knowns = tuple(_CountedKnown(r, 0, 0, 0, "ref") for r in range(1, n + 1))
    limit, report = resolve(SSPage(1, {(0, 0): T(0)}.items(), knowns=knowns))
    assert (limit.r, limit.entries) == (n + 1, (((0, 0), T(0)),))
    assert report.candidates[0].decisions == ()
    return _CountedKnown.reads


def test_many_known_differentials_take_linear_time():
    # knowns, each on its own page: repeats are sought in one pass, and the
    # knowns of each page are found without rescanning all of them; the fields
    # read grow with the count, where a rescan per known or per page would
    # read four times as many for twice the knowns
    assert _known_field_reads(1000) > 0
    assert _known_field_reads(2000) <= 2 * _known_field_reads(1000)
    knowns = tuple(KnownDifferential(r, 0, 0, 0, "ref") for r in range(1, 20_001))
    start = time.perf_counter()
    page = SSPage(1, {(0, 0): T(0)}.items(), knowns=knowns)
    limit, report = resolve(page)
    assert time.perf_counter() - start < 5
    assert (limit.r, limit.entries) == (20_001, (((0, 0), T(0)),))
    assert report.candidates[0].decisions == ()


class _CountedPosition(tuple):
    """A position that counts how often it is read."""
    reads = 0

    def __iter__(self):
        _CountedPosition.reads += 1
        return super().__iter__()

    def __getitem__(self, index):
        _CountedPosition.reads += 1
        return super().__getitem__(index)


def _position_reads(side):
    # Q(-p-q) at each position of a side x side square: the ends of every
    # differential differ in weight, so the page is its own limit
    entries = {_CountedPosition((p, q)): T(p + q) for p in range(side) for q in range(side)}
    page = SSPage(1, entries.items())
    _CountedPosition.reads = 0
    limit, _ = resolve(page)
    assert (limit.r, limit.entries) == (side, page.entries)
    return _CountedPosition.reads


def test_differentials_are_found_without_pairing_every_two_positions():
    # positions are read a bounded number of times each, where pairing every
    # two would read sixteen times as many for four times the positions
    assert _position_reads(16) > 0
    assert _position_reads(32) <= 8 * _position_reads(16)


@settings(max_examples=200, deadline=None)
@given(_ENTRIES, _KNOWNS, st.booleans())
def test_every_candidate_keeps_the_weight_graded_euler_characteristic(entries, knowns,
                                                                      purity):
    page = SSPage(
        1, ((pq, MhsVector.from_classes(c)) for pq, c in entries.items()),
        knowns=tuple(KnownDifferential(r, p, q, rank, "ref") for r, p, q, rank in knowns),
        abutment_smooth_proper=purity)
    before = weight_graded_euler(page.entries)
    report, _ = _outcome(page)
    for candidate in (report.candidates if report else ()):
        assert weight_graded_euler(candidate.entries) == before


@settings(max_examples=100, deadline=None)
@given(_ENTRIES, _KNOWNS, st.booleans())
def test_candidates_are_graded_and_limit_pages_take_them_as_they_are(entries, knowns,
                                                                    purity):
    page = SSPage(
        1, ((pq, MhsVector.from_classes(c)) for pq, c in entries.items()),
        knowns=tuple(KnownDifferential(r, p, q, rank, "ref") for r, p, q, rank in knowns),
        abutment_smooth_proper=purity)
    report, _ = _outcome(page)
    for candidate in (report.candidates if report else ()):
        assert type(candidate.entries) is Graded
        assert candidate.entries == graded(candidate.entries + ())
        assert SSPage(report.final_page, candidate.entries).entries is candidate.entries
    if report and len(report.candidates) == 1:
        limit, report = resolve(page)
        assert limit.entries is report.candidates[0].entries


def test_cap_admits_exactly_the_enumerated_count():
    # the main registry page, a small page whose count sums several states on
    # each of two pages, and that page beside a second block, a chain whose
    # known rank leaves one limit, whose count adds to the first block's
    ambiguous = {(0, 0): T(0) + T(1), (1, 0): T(0) + T(1), (0, 1): T(1), (2, 0): T(1) + T(1)}
    chain = {(0, 4): T(2), (1, 4): T(2), (2, 4): T(2)}
    known = (KnownDifferential(1, 0, 4, 1, "ref"),)
    both = SSPage(1, {**ambiguous, **chain}.items(), knowns=known)
    ambiguous, other = (SSPage(1, ambiguous.items()),
                        SSPage(1, chain.items(), knowns=known))
    assert len(_outcome(ambiguous)[0].candidates) > 1
    assert _outcome(both)[0].enumerated == (_outcome(ambiguous)[0].enumerated
                                            + _outcome(other)[0].enumerated - 1)
    for page in (load_registry().page("main_e1_expected"), ambiguous, both):
        report, _ = _outcome(page)
        assert _summary((report, None)) == _summary(_reference_resolve(page))
        assert _outcome(page, report.enumerated) == (report, None)
        assert _outcome(page, report.enumerated - 1) == (None, EnumerationCapExceeded)


def _pairs(n, purity):
    """n independent d_1 pairs of Q(-1)^2, in degrees where no class is pure."""
    return SSPage(1, (((p, q), T(1) + T(1)) for q in range(3, 3 + n) for p in (0, 1)),
                  abutment_smooth_proper=purity, label="pairs")


def test_independent_blocks_add_their_counts():
    # one block per pair, three ranks each: the count adds, and purity keeps
    # only rank 2 in every block; the full product would enumerate 3^20
    limit, report = resolve(_pairs(20, True))
    assert limit.entries == ()
    assert report.enumerated <= 61
    assert [d.rank for d in report.candidates[0].decisions] == [2] * 20


def test_cap_bounds_the_limit_pages_before_they_are_built(monkeypatch):
    # 3^13 limit pages from 40 enumerated assignments
    built = []
    monkeypatch.setattr(ssengine, "ResolutionCandidate", lambda *a: built.append(a))
    with pytest.raises(EnumerationCapExceeded, match="^1594323 limit pages exceed cap"):
        resolve(_pairs(13, False))
    assert built == []
    with pytest.raises(AmbiguousResolution):
        resolve(_pairs(2, False), cap=9)
    with pytest.raises(EnumerationCapExceeded):
        resolve(_pairs(2, False), cap=8)


def test_candidates_come_in_product_order_over_blocks():
    # block A, d_2 (0,1) -> (2,0), holds the first position; block B,
    # d_1 (0,3) -> (1,3), holds the first page.  The reference runs page 1
    # first and so varies A fastest; the blocks vary B fastest.
    page = SSPage(1, {(0, 1): T(0), (2, 0): T(0), (0, 3): T(1), (1, 3): T(1)}.items())
    report, _ = _outcome(page)
    reference, _ = _reference_resolve(page)
    assert _summary((report, None)) == _summary((reference, None))
    assert [[(d.r, d.p, d.q, d.rank) for d in c.decisions] for c in report.candidates] == [
        [(1, 0, 3, 0), (2, 0, 1, 0)], [(1, 0, 3, 1), (2, 0, 1, 0)],
        [(1, 0, 3, 0), (2, 0, 1, 1)], [(1, 0, 3, 1), (2, 0, 1, 1)]]
    assert [[(d.p, d.rank) for d in c.decisions] for c in reference.candidates] == [
        [(0, 0), (0, 0)], [(0, 0), (0, 1)], [(0, 1), (0, 0)], [(0, 1), (0, 1)]]
    assert report.candidates[0].entries == page.entries
    assert [pq for pq, _ in report.candidates[1].entries] == [(0, 1), (2, 0)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(any),
       st.one_of(st.none(), st.integers(0, 18)))
def test_the_count_of_choices_is_their_number(caps, rank):
    # resolve compares the count with the cap before `_choices` builds them
    known = None if rank is None else KnownDifferential(1, 0, 0, rank, "ref")
    caps = tuple(caps)
    choices = ssengine._choices(1, (0, 0), (1, 0), tuple(range(len(caps))), caps, known)
    assert ssengine._count(caps, known) == len(choices)
