"""An exact spectral-sequence engine for pages of Tate-type Hodge vectors.

A page holds entries E_r^{p,q} (MhsVectors) and optional externally known
differential ranks.  Differentials on page r go (p, q) -> (p+r, q-r+1) and
are morphisms of Hodge structures, so they vanish outright whenever source
and target share no weight (strictness).  The resolver enumerates every
per-weight rank assignment for the remaining differentials, page by page,
cancelling matched-weight dimensions on both ends, and keeps the outcomes
that survive all constraints; an optional purity filter discards outcomes
whose limit page carries a weight different from its total degree anywhere.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import product as iproduct

from .mhs import CohomologyTable, MhsVector, json_path, json_value


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
        cleaned = tuple(sorted(((int(p), int(q)), v)
                               for (p, q), v in self.entries if not v.is_zero()))
        if len({pq for pq, _ in cleaned}) != len(cleaned):
            raise ValueError("repeated position")
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "knowns", tuple(self.knowns))

    @classmethod
    def from_dict(cls, r, mapping, **kw):
        return cls(r, tuple(mapping.items()), **kw)

    def entry(self, p, q):
        for pq, v in self.entries:
            if pq == (p, q):
                return v
        return MhsVector.zero()

    def euler_characteristic(self):
        return sum((-1) ** (p + q) * v.dimension() for (p, q), v in self.entries)

    def to_json_dict(self):
        return {
            "label": self.label,
            "page": self.r,
            "entries": [{"p": p, "q": q, "classes": v.to_classes()}
                        for (p, q), v in self.entries],
            "knowns": [{"r": k.r, "p": k.p, "q": k.q, "rank": k.rank,
                        "citation": k.citation} for k in self.knowns],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data, abutment_smooth_proper=False, path=""):
        """Inverse of `to_json_dict`; ValueError naming the field, under `path`."""
        if not isinstance(data, dict):
            raise ValueError("%sa page must be a JSON object" % (path + ": " if path else ""))
        entries = []
        for i, e in enumerate(json_value(data, "entries", path, list)):
            where = json_path(path, "entries[%d]" % i)
            classes = json_value(e, "classes", where, list)
            entries.append(((json_value(e, "p", where), json_value(e, "q", where)),
                            MhsVector.from_classes(classes, where + ".classes")))
        knowns = [KnownDifferential.from_json_dict(k, json_path(path, "knowns[%d]" % i))
                  for i, k in enumerate(json_value(data, "knowns", path, list, default=[]))]
        return cls(json_value(data, "page", path, default=1), tuple(entries), tuple(knowns),
                   abutment_smooth_proper, json_value(data, "label", path, str, default=""))


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


def _weight_overlap_candidates(entries, r):
    """Differentials at page r with nonzero ends and shared weights.

    Returns [( (p, q), {weight: max cancellable} )] in position order.
    """
    out = []
    for (p, q), src in sorted(entries.items()):
        tgt = entries.get((p + r, q - r + 1))
        if tgt is None:
            continue
        sc, tc = src.weight_counter(), tgt.weight_counter()
        caps = {w: min(sc[w], tc[w]) for w in sorted(set(sc) & set(tc))}
        if caps:
            out.append(((p, q), caps))
    return out


def _apply_removals(entries, removals):
    """Cancel the given weight multiset at each position; None if impossible."""
    out = dict(entries)
    for pq, cnt in removals.items():
        vec = out.get(pq, MhsVector.zero())
        for w, k in cnt.items():
            for _ in range(k):
                try:
                    vec = vec.remove_weight(w)
                except ValueError:
                    return None
        if vec.is_zero():
            out.pop(pq, None)
        else:
            out[pq] = vec
    return out


def _is_pure(entries):
    return all(w == p + q for (p, q), v in entries.items() for w in v.weights())


def resolve(page: SSPage, cap: int = 10 ** 6):
    """Run the page to its limit; return (limit page, report) if unique.

    Raises AmbiguousResolution (with the report of all surviving limit
    pages) when the constraints and the optional purity filter do not pin
    the answer, NoConsistentAssignment when nothing survives, and
    EnumerationCapExceeded once more than `cap` assignments are enumerated.
    """
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
            # a positive known rank at a position with no possible nonzero
            # differential is a contradiction; drop this state
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
                raise EnumerationCapExceeded("assignment enumeration exceeds cap %d" % cap)
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
        raise NoConsistentAssignment(
            "no differential assignment for %r survives all constraints"
            % (page.label or "page"))
    seen = {}
    for entries, decisions in states:
        key = tuple(sorted(entries.items()))
        if key not in seen:
            seen[key] = decisions
    candidates = tuple(ResolutionCandidate(k, v) for k, v in seen.items())
    report = ResolutionReport(page.label, page.abutment_smooth_proper, final_r,
                              candidates, enumerated)
    if len(candidates) > 1:
        raise AmbiguousResolution(report)
    limit = SSPage(final_r, candidates[0].entries, (), page.abutment_smooth_proper, page.label)
    return limit, report


def abutment(page: SSPage, label=None) -> CohomologyTable:
    """Total cohomology of a degenerate (limit) page: sum along p + q = k."""
    acc = {}
    for (p, q), v in page.entries:
        acc[p + q] = acc.get(p + q, MhsVector.zero()) + v
    return CohomologyTable(label or page.label, tuple(acc.items()))


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
    return open_table.add(closed_table, label or open_table.label)


def leray_assemble(base_tables, fiber_items, label="", knowns=()) -> SSPage:
    """Second page of a fibration with decomposed fiber cohomology.

    `fiber_items` lists (fiber degree q, base table tag, Tate twist); each
    contributes base[p] twisted at position (p, q).
    """
    entries = {}
    for q, tag, twist in fiber_items:
        if tag not in base_tables:
            raise ValueError("fiber item references unknown base table %r" % tag)
        for p, vec in base_tables[tag].entries:
            entries[(p, q)] = entries.get((p, q), MhsVector.zero()) + vec.tate_twist(twist)
    return SSPage(2, tuple(entries.items()), tuple(knowns), label=label)
