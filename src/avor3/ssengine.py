"""An exact spectral-sequence engine for pages of Tate-type Hodge vectors.

A page holds entries E_r^{p,q} (MhsVectors) and optional externally known
differential ranks.  Differentials on page r go (p, q) -> (p+r, q-r+1) and
are morphisms of Hodge structures, strictly compatible with weights, so
they vanish outright whenever source and target share no weight.  The
others split the positions into blocks that no differential joins.  The
resolver runs each block alone, in weights only: its states count the
dimensions of each weight at each position, it enumerates every per-weight
rank assignment for the block's differentials, page by page, subtracting
matched-weight dimensions on both ends, and keeps the outcomes that survive
all constraints; an optional purity filter discards outcomes that carry a
weight different from the total degree anywhere.  Vectors appear only at
the edges: `mhs.from_weight_counts` rebuilds each distinct limit of a block
once, so only `mhs` knows the atom F.  The limit pages of the page are the
products of its blocks', each joined once from normalised pieces by
`mhs.disjoint_union`, so the page constructor takes its entries as they
are.  The abutment of a limit page sums its diagonals in the one pass of
`mhs.diagonal_sums`.

Rank choices are built per block and page, and assignments are extended
one differential at a time.  The enumeration cap counts the assignments
tried at each state of each block on each of its pages, whether or not
their cancels succeed, and bounds the number of limit pages.  A state's
assignments are counted from its caps before any choice is built, so a
page past the cap raises before doing the large work.

Pages, known differentials, decisions and reports are immutable tuple
records (namedtuples).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, product as iproduct
from math import prod

from . import Avor3Error, Checked, InputError
from .mhs import (CohomologyTable, diagonal_sums, disjoint_union, entries_from_json,
                  entries_to_json, entry_at, from_weight_counts, graded, json_path,
                  json_value, weight_counts)


class NoConsistentAssignment(Avor3Error):
    """No differential rank assignment satisfies all constraints."""


class EnumerationCapExceeded(Avor3Error):
    """Resolving a page would enumerate more rank assignments than the cap."""


class AmbiguousResolution(Avor3Error):
    """Several limit pages survive; carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__("%d candidate resolutions survive" % len(report.candidates))


class KnownDifferential(Checked, namedtuple("KnownDifferential", "r p q rank citation")):
    __slots__ = ()

    def __new__(cls, r, p, q, rank, citation):
        if rank < 0:
            raise InputError("", "negative rank")
        if not citation:
            raise InputError("", "a known differential must carry a citation")
        return super().__new__(cls, r, p, q, rank, citation)

    @classmethod
    def from_json_dict(cls, data, path):
        """A known differential from JSON; InputError at `path` if malformed."""
        fields = (json_value(data, "r", path), json_value(data, "p", path),
                  json_value(data, "q", path), json_value(data, "rank", path, minimum=0),
                  json_value(data, "citation", path, str))
        try:
            return cls(*fields)
        except InputError as exc:  # an empty citation
            raise InputError(path, exc.args[1]) from None


class SSPage(Checked, namedtuple("SSPage", "r entries knowns abutment_smooth_proper label")):
    """Page r of a spectral sequence: `entries` are ((p, q), MhsVector)
    pairs, normalised by `graded`, and `knowns` its known differentials."""

    __slots__ = ()

    def __new__(cls, r, entries=(), knowns=(), abutment_smooth_proper=False, label=""):
        entries, knowns = graded(entries), tuple(knowns)
        if knowns:  # a limit page has none, and skips the check's set-up
            seen, first = set(), max(r, 1)
            for i, key in enumerate((k.r, k.p, k.q) for k in knowns):
                if key[0] < first:  # the page no longer has it, so it would go unused
                    raise InputError("knowns[%d]" % i, "known differential d_%d at (%d,%d) "
                                     "precedes page %d" % (key + (first,)))
                if key in seen:
                    raise InputError("knowns[%d]" % i,
                                     "repeated known differential d_%d at (%d,%d)" % key)
                seen.add(key)
        return super().__new__(cls, r, entries, knowns, abutment_smooth_proper, label)

    def entry(self, p, q):
        return entry_at(self.entries, (p, q))

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
        """Inverse of `to_json_dict`; InputError naming the field, under `path`."""
        if not isinstance(data, dict):
            raise InputError(path, "a page must be a JSON object")
        entries = entries_from_json(data, path, "position")
        knowns = [KnownDifferential.from_json_dict(k, json_path(path, "knowns[%d]" % i))
                  for i, k in enumerate(json_value(data, "knowns", path, list, default=[]))]
        r = json_value(data, "page", path, minimum=0, default=1)
        label = json_value(data, "label", path, str, default="")
        try:
            return cls(r, entries, tuple(knowns), abutment_smooth_proper, label)
        except InputError as exc:
            raise InputError(json_path(path, exc.args[0]), exc.args[1]) from None


# kind is "known" or "solver"
DifferentialDecision = namedtuple("DifferentialDecision", "r p q rank kind citation",
                                  defaults=("",))
ResolutionCandidate = namedtuple("ResolutionCandidate", "entries decisions")
ResolutionReport = namedtuple("ResolutionReport",
                              "label purity final_page candidates enumerated")


def _cancel(counts, cancels):
    """`counts` less k at each (key, k) of `cancels`; None when a count would
    go below 0."""
    out = dict(counts)
    for key, k in cancels:
        n = out[key] - k
        if n < 0:
            return None
        out[key] = n
    return out


def _count(caps, known):
    """The number of per-weight rank vectors under `caps`, of the `known` rank
    if any: len(`_choices`) for these caps, without building them."""
    if known is None:
        return prod(c + 1 for c in caps)
    ways = [1] + [0] * known.rank  # ways[t]: the vectors so far of sum t
    for c in caps:
        acc = [0, *accumulate(ways)]  # acc[t]: the vectors so far of sum below t
        ways = [acc[t + 1] - acc[max(0, t - c)] for t in range(known.rank + 1)]
    return ways[-1]


def _choices(r, src, tgt, ws, caps, known):
    """(cancels, decision) of each per-weight rank vector of d_r: src -> tgt
    whose ends share each weight of `ws` at most as often as `caps` says, of
    the `known` rank if any."""
    kind, citation = ("solver", "") if known is None else ("known", known.citation)
    return [(tuple(((pq, w), k) for w, k in zip(ws, combo) if k for pq in (src, tgt)),
             DifferentialDecision(r, *src, sum(combo), kind, citation))
            for combo in iproduct(*[range(c + 1) for c in caps])
            if known is None or sum(combo) == known.rank]


def _blocks(support, weights, start):
    """(last r of a differential or 0, blocks) of the positions in `support`.

    A differential d_r (r >= `start`) joins a position of total degree k to
    one of degree k + 1, so only positions on adjacent diagonals are paired.
    One whose ends share no weight vanishes by strictness and joins nothing.
    A block is a class of positions joined by the others: (its positions,
    {r: [(source, target)]}) with pages and sources in order.  Blocks come in
    the order of their first positions; positions of no block are fixed.
    """
    diagonals = {}  # total degree -> [(p, position)], in position order
    for pq in support:
        diagonals.setdefault(pq[0] + pq[1], []).append((pq[0], pq))
    last, arrows = 0, []
    for k, sources in diagonals.items():
        targets = diagonals.get(k + 1, ())
        for p1, src in sources:
            for p2, tgt in targets:
                if p2 - p1 >= start:
                    last = max(last, p2 - p1)
                    if not weights[src].keys().isdisjoint(weights[tgt]):
                        arrows.append((p2 - p1, src, tgt))
    leader = {}  # union-find over the ends of the differentials kept

    def find(pq):
        while leader.setdefault(pq, pq) != pq:
            leader[pq] = pq = leader[leader[pq]]
        return pq

    for _, src, tgt in arrows:
        leader[find(tgt)] = find(src)
    blocks = {}
    for pq in support:
        if pq in leader:
            blocks.setdefault(find(pq), ([], {}))[0].append(pq)
    for r, src, tgt in sorted(arrows):
        blocks[find(src)][1].setdefault(r, []).append((src, tgt))
    return last, list(blocks.values())


def resolve(page: SSPage, cap: int = 10 ** 6):
    """Run the page to its limit; return (limit page, report) if unique.

    Raises AmbiguousResolution (with the report of all surviving limit
    pages) when the constraints and the optional purity filter do not pin
    the answer, NoConsistentAssignment when nothing survives, and
    EnumerationCapExceeded once more than `cap` assignments are enumerated,
    or before more than `cap` limit pages would be built.

    No differential joins two blocks (see `_blocks`), so each block runs
    alone, on its own pages, and the page's limits are the products of its
    blocks' limits.  Differentials are strictly compatible with weights, so
    a block's state is a flat multiset, the dimensions left at each
    (position, weight), and a cancel subtracts from it.  The fixed positions
    keep their vectors.  A block's final states are deduplicated on their
    frozen counts, and each distinct limit is rebuilt once into vectors by
    `mhs.from_weight_counts`, normalised by `graded`; a candidate's entries
    are the `disjoint_union` of the fixed positions and its blocks' limits,
    which a limit page takes as they are.  The purity filter is one rule on
    (position, weight) keys, w == p + q, read by the fixed positions and by
    the final states alike.
    Candidates come in product order over the blocks, in enumeration order
    within a block; a candidate's decisions, in plain tuple order, are the
    first assignment found for its limit.  That order is (r, p, q) order, as
    a candidate decides each differential d_r at (p, q) once.  The count
    starts at 1 and adds, for each state of each block on each of its pages,
    the number of assignments tried there.  A known rank out of reach of its
    differential's input ends, or a fixed position failing the purity
    filter, raises NoConsistentAssignment before any block is enumerated.

    On each page a block keeps each differential's choices per source and
    caps (for each weight its ends share on the block's input, the smaller
    of the two counts left), and a state's assignments grow one differential
    at a time in the order of the full product, so a failed cancel drops all
    extensions of its partial assignment.  They are counted by `_count`
    first, and compared with the cap before any of the state's choices is
    built, so no list of choices is longer than the cap.
    """
    support = dict(page.entries)
    weights = {pq: weight_counts(v) for pq, v in support.items()}
    last, blocks = _blocks(support, weights, max(page.r, 1))
    last = max([last] + [k.r for k in page.knowns])
    final_r = last + 1 if last else page.r
    nothing = NoConsistentAssignment("no differential assignment for %r survives all "
                                     "constraints" % (page.label or "page"))
    known_map = {}
    for k in page.knowns:
        sc = weights.get((k.p, k.q), {})
        tc = weights.get((k.p + k.r, k.q - k.r + 1), {})
        if k.rank > sum(min(n, tc[w]) for w, n in sc.items() if w in tc):
            raise nothing
        known_map[k.r, (k.p, k.q)] = k
    purity = page.abutment_smooth_proper
    joined = {pq for positions, _ in blocks for pq in positions}
    fixed = graded((pq, v) for pq, v in page.entries if pq not in joined)
    # the purity rule: a dimension of weight w at (p, q) is pure when w == p + q
    impure = {((p, q), w) for (p, q), ws in weights.items() for w in ws
              if w != p + q} if purity else set()
    if any(pq not in joined for pq, _ in impure):
        raise nothing

    enumerated = 1
    limits = []  # per block, {Graded limit entries: decisions of the first assignment}
    for positions, pages in blocks:
        # a state: the dimensions of each (position, weight) left, and decisions
        start = {(pq, w): n for pq in positions for w, n in weights[pq].items()}
        states = [(start, ())]
        for r, arrows in pages.items():
            arrows = [(src, tgt, sorted(weights[src].keys() & weights[tgt].keys()),
                       known_map.get((r, src))) for src, tgt in arrows]
            memo = {}  # (source, caps) -> `_choices`, for this page only
            nxt = []
            for counts, decisions in states:
                # the assignments are counted from the caps before any is built;
                # a differential whose ends share no weight any more has no
                # choice, and drops the state if its known rank is positive
                count, keys = 1, []
                for src, tgt, ws, known in arrows:  # ws: the weights its ends share at first
                    caps = tuple([min(counts[src, w], counts[tgt, w]) for w in ws])
                    count *= _count(caps, known)
                    if any(caps):
                        keys.append((src, tgt, ws, caps, known))
                enumerated += count
                if enumerated > cap:
                    raise EnumerationCapExceeded("assignment enumeration exceeds cap %d" % cap)
                if not count:
                    continue
                # the product of the choices, one differential at a time; each
                # differential's number of choices is at most `count`
                partial = [(counts, decisions)]
                for src, tgt, ws, caps, known in keys:
                    choices = memo.get((src, caps))
                    if choices is None:
                        choices = memo[src, caps] = _choices(r, src, tgt, ws, caps, known)
                    partial = [(out, ds + (d,)) for c, ds in partial for cancels, d in choices
                               if (out := _cancel(c, cancels)) is not None]
                nxt.extend(partial)
            states = nxt
            if not states:
                raise nothing
        tested = impure.intersection(start)
        if tested:
            states = [s for s in states if not any(s[0][key] for key in tested)]
        # every state holds the keys of `start` in its order, so the tuple of
        # its counts freezes it
        seen = {}
        for counts, decisions in states:
            seen.setdefault(tuple(counts.values()), decisions)
        if not seen:
            raise nothing
        stops = list(accumulate(len(weights[pq]) for pq in positions))
        spans = list(zip(positions, [0] + stops, stops))  # a position's slice of the tuple
        # (position, its counts left) -> its vector, first the page's own
        vectors = {(pq, tuple(weights[pq].values())): support[pq] for pq in positions}
        limit = {}
        for values, decisions in seen.items():
            pairs = []
            for pq, lo, hi in spans:
                left = values[lo:hi]
                if any(left):
                    v = vectors.get((pq, left))
                    if v is None:
                        v = vectors[pq, left] = from_weight_counts(
                            dict(zip(weights[pq], left)), support[pq].f_count)
                    pairs.append((pq, v))
            limit[graded(pairs)] = decisions
        limits.append(limit)
    combined = prod(map(len, limits))
    if combined > cap:
        raise EnumerationCapExceeded("%d limit pages exceed cap %d" % (combined, cap))

    # the candidates of the blocks so far, each the fixed positions and the
    # limits of its blocks, in product order
    partial = [((fixed,), ())]
    for seen in limits:
        partial = [(es + (pe,), ds + pds) for es, ds in partial for pe, pds in seen.items()]
    candidates = tuple(ResolutionCandidate(disjoint_union(es), tuple(sorted(ds)))
                       for es, ds in partial)
    report = ResolutionReport(page.label, purity, final_r, candidates, enumerated)
    if len(candidates) > 1:
        raise AmbiguousResolution(report)
    limit = SSPage(final_r, candidates[0].entries, (), purity, page.label)
    return limit, report


def abutment(page: SSPage, label=None) -> CohomologyTable:
    """Total cohomology of a degenerate (limit) page: sum along p + q = k,
    by `mhs.diagonal_sums`; labelled `label`, or the page's label."""
    return CohomologyTable(label or page.label, diagonal_sums(page.entries))


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
    return SSPage(2, parts(), tuple(knowns), label=label)
