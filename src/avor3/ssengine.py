"""An exact spectral-sequence engine for pages of Tate-type Hodge vectors.

A page holds entries E_r^{p,q} (MhsVectors) and optional externally known
differential ranks.  Differentials on page r go (p, q) -> (p+r, q-r+1) and
are morphisms of Hodge structures, so they vanish outright whenever source
and target share no weight (strictness).  The resolver enumerates every
per-weight rank assignment for the remaining differentials, page by page,
cancelling matched-weight dimensions on both ends, and keeps the outcomes
that survive all constraints; an optional purity filter discards outcomes
whose limit page carries a weight different from its total degree anywhere.

While it enumerates, a state maps each position to a plain (tates, f_count)
pair and carries its decisions as plain tuples; the MhsVectors and
DifferentialDecisions of the report are built once per surviving candidate.
Arrows and rank choices are built per page, and assignments are extended one
differential at a time.  The enumeration cap counts the assignments tried at
each state of each page, whether or not their removals succeed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import prod

from .mhs import (CohomologyTable, LocatedError, MhsVector, canonical, entries_from_json,
                  entries_to_json, entry_at, graded, json_path, json_value, located,
                  remove_weight, weight_counts)


class NoConsistentAssignment(RuntimeError):
    """No differential rank assignment satisfies all constraints."""


class EnumerationCapExceeded(RuntimeError):
    """Resolving a page would enumerate more rank assignments than the cap."""


class AmbiguousResolution(RuntimeError):
    """Several limit pages survive; carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__("%d candidate resolutions survive" % len(report.candidates))


class SplitNotJustified(RuntimeError):
    """The long exact sequence is not forced to split degreewise."""


@dataclass(frozen=True)
class KnownDifferential:
    r: int
    p: int
    q: int
    rank: int
    citation: str

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        if not self.citation:
            raise ValueError("a known differential must carry a citation")

    @classmethod
    def from_json_dict(cls, data, path):
        """A known differential from JSON; ValueError (naming `path`) if malformed."""
        return cls(json_value(data, "r", path), json_value(data, "p", path),
                   json_value(data, "q", path), json_value(data, "rank", path, minimum=0),
                   json_value(data, "citation", path, str))


@dataclass(frozen=True)
class SSPage:
    r: int
    entries: tuple = ()  # sorted tuple of ((p, q), MhsVector), zeros dropped
    knowns: tuple = ()
    abutment_smooth_proper: bool = False
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "entries", canonical(self.entries, "position"))
        object.__setattr__(self, "knowns", tuple(self.knowns))
        seen = set()
        for i, key in enumerate((k.r, k.p, k.q) for k in self.knowns):
            if key in seen:
                raise LocatedError("knowns[%d]" % i,
                                   "repeated known differential d_%d at (%d,%d)" % key)
            seen.add(key)

    @classmethod
    def from_dict(cls, r, mapping, **kw):
        return cls(r, tuple(mapping.items()), **kw)

    def entry(self, p, q):
        return entry_at(self.entries, (p, q))

    def euler_characteristic(self):
        return sum((-1) ** (p + q) * v.dimension() for (p, q), v in self.entries)

    def to_json_dict(self):
        return {
            "label": self.label,
            "page": self.r,
            "entries": entries_to_json(self.entries, "position"),
            "knowns": [{"r": k.r, "p": k.p, "q": k.q, "rank": k.rank,
                        "citation": k.citation} for k in self.knowns],
        }

    @classmethod
    def from_json_dict(cls, data, abutment_smooth_proper=False, path=""):
        """Inverse of `to_json_dict`; ValueError naming the field, under `path`."""
        if not isinstance(data, dict):
            raise ValueError("%sa page must be a JSON object" % (path + ": " if path else ""))
        entries = entries_from_json(data, path, "position")
        knowns = [KnownDifferential.from_json_dict(k, json_path(path, "knowns[%d]" % i))
                  for i, k in enumerate(json_value(data, "knowns", path, list, default=[]))]
        r = json_value(data, "page", path, default=1)
        label = json_value(data, "label", path, str, default="")
        with located(path):
            return cls(r, entries, tuple(knowns), abutment_smooth_proper, label)


@dataclass(frozen=True)
class DifferentialDecision:
    r: int
    p: int
    q: int
    rank: int
    kind: str  # "known" | "solver"
    citation: str = ""


@dataclass(frozen=True)
class ResolutionCandidate:
    entries: tuple
    decisions: tuple


@dataclass(frozen=True)
class ResolutionReport:
    label: str
    purity: bool
    final_page: int
    candidates: tuple
    enumerated: int


def _cancel(entries, cancels):
    """`entries` with k dimensions of weight w removed at each (position, w, k).

    Positions left empty are dropped; None when a removal is impossible.
    The result does not depend on the order of the cancels: at one position
    the F atoms left are min(f_count, weight-0 dimension, weight-6 dimension)
    after all of them, and a removal fails only when its weight has run out.
    """
    out = dict(entries)
    for pq, w, k in cancels:
        pair = out.get(pq)
        if pair is not None:
            pair = remove_weight(*pair, w, k)
        if pair is None:
            return None
        if pair[0] or pair[1]:
            out[pq] = pair
        else:
            del out[pq]
    return out


def _choices(r, src, tgt, pairs, known):
    """(cancels, decision) of each per-weight rank vector of d_r: src -> tgt,
    whose ends hold `pairs`, of the `known` rank if any; None when an end is
    empty or the two share no weight."""
    if None in pairs:
        return None
    sc, tc = weight_counts(*pairs[0]), weight_counts(*pairs[1])
    ws = sorted(sc.keys() & tc.keys())
    if not ws:
        return None
    kind, citation = ("solver", "") if known is None else ("known", known.citation)
    return [(tuple((pq, w, k) for w, k in zip(ws, combo) if k for pq in (src, tgt)),
             (r, *src, sum(combo), kind, citation))
            for combo in iproduct(*[range(min(sc[w], tc[w]) + 1) for w in ws])
            if known is None or sum(combo) == known.rank]


def resolve(page: SSPage, cap: int = 10 ** 6):
    """Run the page to its limit; return (limit page, report) if unique.

    Raises AmbiguousResolution (with the report of all surviving limit
    pages) when the constraints and the optional purity filter do not pin
    the answer, NoConsistentAssignment when nothing survives, and
    EnumerationCapExceeded once more than `cap` assignments are enumerated.
    The count starts at 1 and adds, for each state on each page, the number
    of assignments tried there.

    A state maps each position to a plain (tates, f_count) pair and carries
    its decisions as (r, p, q, rank, kind, citation) tuples; the MhsVectors
    and DifferentialDecisions of the report are built once per distinct
    value among the surviving candidates.  Page r lists its arrows once and
    keeps each differential's choices per pair of end values; a state's
    assignments grow one differential at a time in the order of the full
    product, so a failed removal drops all extensions of its partial one.
    """
    known_map = {(k.r, k.p, k.q): k for k in page.knowns}
    positive_knowns = {}  # r -> positions of its knowns of positive rank
    for k in (k for k in page.knowns if k.rank > 0):
        positive_knowns.setdefault(k.r, set()).add((k.p, k.q))
    support = dict(page.entries)  # sorted positions, each found in one lookup
    rset = {p2 - p1 for (p1, q1) in support for (p2, q2) in support
            if p2 - p1 >= max(page.r, 1) and q2 - q1 == 1 - (p2 - p1)}
    rset.update(k.r for k in page.knowns if k.r >= max(page.r, 1))
    rset = sorted(rset)
    final_r = (max(rset) + 1) if rset else page.r

    # positions stay in sorted order: a state only rewrites or drops them
    states = [({pq: (v.tates, v.f_count) for pq, v in page.entries}, ())]
    enumerated = 1
    for r in rset:
        arrows = [(pq, t) for pq in support if (t := (pq[0] + r, pq[1] - r + 1)) in support]
        needed = positive_knowns.get(r)
        memo = {}  # (source, (its pair, target pair)) -> `_choices`, for this page only
        nxt = []
        for entries, decisions in states:
            # each differential with nonzero ends and shared weights, with
            # every per-weight rank vector allowed: (source, [(cancels, decision)])
            options = []
            for src, tgt in arrows:
                key = (src, (entries.get(src), entries.get(tgt)))
                if key not in memo:
                    memo[key] = _choices(r, src, tgt, key[1], known_map.get((r,) + src))
                if memo[key] is not None:
                    options.append((src, memo[key]))
            # a positive known rank at a position with no possible nonzero
            # differential is a contradiction; drop this state
            if needed and not needed <= {pq for pq, _ in options}:
                continue
            count = prod(len(choices) for _, choices in options)
            enumerated += count
            if enumerated > cap:
                raise EnumerationCapExceeded("assignment enumeration exceeds cap %d" % cap)
            if not count:  # a known rank no choice reaches: no assignment to expand
                continue
            # the product of the choices, one differential at a time
            partial = [(entries, decisions)]
            for _, choices in options:
                partial = [(out, ds + (d,)) for e, ds in partial for cancels, d in choices
                           if (out := _cancel(e, cancels)) is not None]
            nxt.extend(partial)
        states = nxt
        del nxt  # so that `del states` below frees the last page's states
        if not states:
            break

    if page.abutment_smooth_proper:
        states = [(e, d) for e, d in states
                  if all(not f and all(2 * n == p + q for n in tates)
                         for (p, q), (tates, f) in e.items())]
    if not states:
        raise NoConsistentAssignment(
            "no differential assignment for %r survives all constraints"
            % (page.label or "page"))
    seen = {}
    for entries, decisions in states:
        seen.setdefault(tuple(entries.items()), decisions)
    del states
    vectors = {pair: MhsVector(*pair) for pair in {pair for key in seen for _, pair in key}}
    decided = {d: DifferentialDecision(*d) for d in {d for ds in seen.values() for d in ds}}
    candidates = tuple(ResolutionCandidate(tuple((pq, vectors[pair]) for pq, pair in key),
                                           tuple(decided[d] for d in decisions))
                       for key, decisions in seen.items())
    report = ResolutionReport(page.label, page.abutment_smooth_proper, final_r,
                              candidates, enumerated)
    if len(candidates) > 1:
        raise AmbiguousResolution(report)
    limit = SSPage(final_r, candidates[0].entries, (), page.abutment_smooth_proper, page.label)
    return limit, report


def abutment(page: SSPage, label=None) -> CohomologyTable:
    """Total cohomology of a degenerate (limit) page: sum along p + q = k."""
    return CohomologyTable(label or page.label,
                           graded((p + q, v) for (p, q), v in page.entries))


def gysin_split(open_table: CohomologyTable, closed_table: CohomologyTable,
                label=None) -> CohomologyTable:
    """Degreewise sum of open and closed pieces when the boundary maps die.

    Sufficient condition checked degree by degree: the connecting map
    closed^(k-1) -> open^k vanishes because one side is zero or the weights
    are disjoint.  Otherwise SplitNotJustified.
    """
    degs = set(open_table.degrees()) | {d + 1 for d in closed_table.degrees()}
    for k in sorted(degs):
        c = closed_table.entry(k - 1)
        o = open_table.entry(k)
        if c.is_zero() or o.is_zero():
            continue
        if set(c.weights()) & set(o.weights()):
            raise SplitNotJustified(
                "connecting map into degree %d not forced to vanish" % k)
    return CohomologyTable(label or open_table.label,
                           graded(open_table.entries + closed_table.entries))


def leray_assemble(base_tables, fiber_items, label="", knowns=()) -> SSPage:
    """Second page of a fibration with decomposed fiber cohomology.

    `fiber_items` lists (fiber degree q, base table tag, Tate twist); each
    contributes base[p] twisted at position (p, q).
    """
    def parts():
        for q, tag, twist in fiber_items:
            if tag not in base_tables:
                raise ValueError("fiber item references unknown base table %r" % tag)
            for p, vec in base_tables[tag].entries:
                yield (p, q), vec.tate_twist(twist)
    return SSPage(2, graded(parts()), tuple(knowns), label=label)
