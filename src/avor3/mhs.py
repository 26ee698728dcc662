"""Bookkeeping for the Hodge structures appearing in the computation.

Everything that occurs is a direct sum of one-dimensional Tate pieces Q(-n)
(weight 2n) plus copies of a single two-dimensional atom F: the non-split
extension of Q by Q(-3) showing up in middle degree of the open moduli
part.  F has weight multiset {0, 6}; its weight-0 piece is a sub-object, so
a rank-one map from a weight-0 class into F can cancel it and leave Q(-3),
while cancelling the weight-6 piece leaves Q.  F does not admit Tate twists
here (none are ever needed), and twisting it raises UnsupportedTwist.
This module alone knows F: the resolver cancels dimensions by weight
(`weight_counts`), and `from_weight_counts` turns the dimensions left back
into a vector.

Tables and pages hold graded entries, a tuple of (key, MhsVector) sorted by
key (a degree or a (p, q) position), no key repeated and no vector zero.
Entries are normalised once: `graded`, the one normaliser, sums the
vectors at one key and returns a `Graded` tuple, which only this module
makes and which `graded` passes through unchanged.  So the table and page
constructors, which apply `graded` to whatever pairs they are given, take
`Graded` entries as they are, and `disjoint_union` joins `Graded` pieces
with no key in common without normalising them again.  `diagonal_sums`
sums the `Graded` (p, q) entries of a page along each diagonal p + q in
one pass, into `Graded` entries by degree.  It and `graded` add vectors by
the one sum rule, `MhsVector.__add__`, which their loops call as the plain
function `_add`; `graded` tests a vector for zero inline, and
`diagonal_sums` needs no test, as `Graded` entries hold no zero vector.
Only this module
reads and writes entries.  `MhsVector` and `CohomologyTable` are immutable
tuple records (namedtuples) whose constructors normalise their fields.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import groupby
from operator import itemgetter

from . import Avor3Error, Checked, InputError

MAX_CLASSES = 10_000  # classes, counted with multiplicity, in one entries array
_KEY_FIELDS = {"degree": ("degree",), "position": ("p", "q")}


class UnsupportedTwist(Avor3Error, ValueError):
    """A nonzero Tate twist of the extension atom F.  Every fibred piece, the
    rank-2 products included, meets F through `tate_twist` alone: no tensor
    product of vectors or tables raises it."""


def weight_counts(v):
    """{weight: dimension} of the MhsVector `v` (each F adds one dimension of
    weight 0 and one of weight 6)."""
    counts = {}
    for n in v.tates:
        counts[2 * n] = counts.get(2 * n, 0) + 1
    if v.f_count:
        counts[0] = counts.get(0, 0) + v.f_count
        counts[6] = counts.get(6, 0) + v.f_count
    return counts


def from_weight_counts(counts, f_count):
    """The MhsVector with the {weight: dimension} `counts` of a vector that
    held `f_count` F atoms before some of its dimensions were cancelled.

    A cancelled dimension of weight w is a Tate piece of weight w if one is
    left, and else splits an F atom, whose complementary piece stays as a
    pure Tate class: weight 0 leaves Q(-3), weight 6 leaves Q.  So, in any
    order of the cancels, min(f_count, counts[0], counts[6]) atoms are left
    (a missing weight counts 0), and every other dimension is a Tate piece.
    """
    f = min(f_count, counts.get(0, 0), counts.get(6, 0))
    tates = []
    for w, n in sorted(counts.items()):
        tates += [w // 2] * (n - f if w in (0, 6) else n)
    # tates sorted and f >= 0 by construction: no check, one tuple made
    return tuple.__new__(MhsVector, (tuple(tates), f))


_KIND_NAMES = {int: "an integer", list: "a list", str: "a string", dict: "an object"}


def json_path(path, field):
    """`field` under the document position `path` ("" for the top level)."""
    return path + "." + field if path else field


def read_json(path):
    """The JSON document in the file at `path`; InputError when it is not
    UTF-8 or not JSON (ValueErrors of the decoder) or nested too deep to
    parse (a RecursionError)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError("", str(exc)) from None


def json_value(obj, key, path, kind=int, minimum=None, default=None):
    """obj[key] from a parsed JSON document, checked to be of type `kind`.

    Integers must be exactly int (a bool is rejected) and at least `minimum`
    when one is given.  A missing key takes `default`, and is an error when
    there is none.  Every error is an InputError at `path`, the position of
    `obj` in the document.
    """
    if not isinstance(obj, dict):
        raise InputError(path, "expected an object")
    if key not in obj:
        if default is None:
            raise InputError(path, 'missing "%s"' % key)
        return default
    value = obj[key]
    if type(value) is not kind:
        raise InputError(path, '"%s" must be %s' % (key, _KIND_NAMES[kind]))
    if minimum is not None and value < minimum:
        raise InputError(path, '"%s" must be at least %d' % (key, minimum))
    return value


class MhsVector(Checked, namedtuple("MhsVector", "tates f_count")):
    """A finite multiset of Tate pieces plus copies of the atom F."""

    __slots__ = ()

    def __new__(cls, tates=(), f_count=0):
        tates = tuple(sorted(tates))
        if f_count < 0:
            raise ValueError("negative multiplicity")
        return super().__new__(cls, tates, f_count)

    @classmethod
    def tate(cls, n, mult=1):
        return cls(tates=(n,) * mult)

    def is_zero(self):
        return not self.tates and self.f_count == 0

    def dimension(self):
        return len(self.tates) + 2 * self.f_count

    def __add__(self, other):
        # the one sum rule; two valid vectors have a valid sum: no check, one tuple made
        return tuple.__new__(MhsVector, (tuple(sorted(self.tates + other.tates)),
                                         self.f_count + other.f_count))

    def tate_twist(self, n):
        """Tensor with Q(-n): each Q(-m) becomes Q(-m-n)."""
        if n != 0 and self.f_count:
            raise UnsupportedTwist("the extension atom F cannot be Tate twisted")
        return MhsVector(tuple(m + n for m in self.tates), self.f_count)

    def runs(self):
        """(n, multiplicity) of each distinct Q(-n), by increasing n."""
        return [(n, sum(1 for _ in run)) for n, run in groupby(self.tates)]

    def to_classes(self):
        return ([{"tate": n, "mult": mult} for n, mult in self.runs()]
                + [{"atom": "F"} for _ in range(self.f_count)])

    @classmethod
    def from_classes(cls, classes, path="classes"):
        """Inverse of `to_classes`; InputError at `path` on a malformed class."""
        return _read_classes(classes, path, 0)[0]

    def __str__(self):
        return spell(self, lambda n: "Q" if n == 0 else "Q(%d)" % (-n), "F", "%s^%d", " + ")


def _read_classes(classes, path, count):
    """(MhsVector, count plus its classes) of a JSON class list; InputError
    under `path` on a malformed class, or before a class would take the
    count past MAX_CLASSES."""
    tates = []
    f_count = 0
    for i, c in enumerate(classes):
        where = "%s[%d]" % (path, i)
        mult = json_value(c, "mult", where, minimum=1, default=1)
        count += mult
        if count > MAX_CLASSES:
            raise InputError(where, "more than %d classes in all entries" % MAX_CLASSES)
        if "atom" in c:
            if "tate" in c:
                raise InputError(where, 'a class holds "tate" or "atom", not both')
            if c["atom"] != "F":
                raise InputError(where, '"atom" must be "F"')
            f_count += mult
        else:
            tates.extend([json_value(c, "tate", where, minimum=0)] * mult)
    return MhsVector(tuple(tates), f_count), count


def spell(v, tate, atom, power, plus):
    """`v` written out: Q(-n) as tate(n) and F as `atom`, k > 1 equal pieces
    as power % (piece, k), joined by `plus`; "0" when v is zero."""
    runs = [(tate(n), k) for n, k in v.runs()]
    if v.f_count:
        runs.append((atom, v.f_count))
    return plus.join(name if k == 1 else power % (name, k) for name, k in runs) or "0"


class Graded(tuple):
    """Graded entries as `graded` or `disjoint_union` made them; it compares,
    hashes, prints and encodes as the plain tuple."""

    __slots__ = ()


_KEY = itemgetter(0)
_add = MhsVector.__add__  # the sum rule, called where a loop sums many vectors


def graded(pairs):
    """Graded entries of (key, MhsVector) pairs, zero vectors skipped as read:
    those at one key summed by `_add` (a key with one vector keeps that
    vector), sorted by key.  A `Graded` is returned unchanged."""
    if type(pairs) is Graded:
        return pairs
    parts = {}
    for key, v in pairs:
        if v.tates or v.f_count:
            parts[key] = _add(parts[key], v) if key in parts else v
    return Graded(sorted(parts.items(), key=_KEY))


def diagonal_sums(entries):
    """Graded entries by degree k of the graded (p, q) `entries`, in one pass:
    the vectors on each diagonal p + q = k summed by `_add`, as `graded`
    sums those at one key."""
    parts = {}
    for (p, q), v in entries:
        k = p + q
        parts[k] = _add(parts[k], v) if k in parts else v
    return Graded(sorted(parts.items(), key=_KEY))


def disjoint_union(pieces):
    """Graded entries holding the pairs of the `Graded` pieces, which share no
    key: one sort by key and one pass over adjacent keys, nothing summed.
    TypeError on a piece that is not `Graded`, ValueError on a key in two
    pieces."""
    out = []
    for piece in pieces:
        if type(piece) is not Graded:
            raise TypeError("disjoint_union joins Graded entries, not %s"
                            % type(piece).__name__)
        out += piece
    out.sort(key=_KEY)
    prev = None
    for key, _ in out:
        if key == prev:
            raise ValueError("pieces share a key")
        prev = key
    return Graded(out)


def weight_graded_euler(entries):
    """{w: e_w} of graded `entries`, by increasing weight w, zero values
    dropped: e_w sums (-1)^k dim Gr^W_w of the vector at each key, where k is
    the key (a degree) or p + q (a (p, q) position)."""
    out = {}
    for key, v in entries:
        sign = -1 if (sum(key) if type(key) is tuple else key) % 2 else 1
        for w, n in weight_counts(v).items():
            out[w] = out.get(w, 0) + sign * n
    return {w: e for w, e in sorted(out.items()) if e}


def entry_at(entries, key):
    """The vector at `key` of graded `entries`, zero when there is none."""
    return next((v for k, v in entries if k == key), MhsVector())


def entries_to_json(entries, kind):
    """The JSON "entries" array of graded entries keyed by `kind`."""
    fields = _KEY_FIELDS[kind]
    return [dict(zip(fields, key if len(fields) > 1 else (key,)), classes=v.to_classes())
            for key, v in entries]


def entries_from_json(data, path, kind):
    """The (key, MhsVector) pairs of data["entries"], keyed by `kind`;
    InputError naming the field, under `path`.  All entries together hold
    at most MAX_CLASSES classes, counted with multiplicity.  Once all are
    read, a key repeated with nonzero vectors, a "degree" or a "position" as
    `kind` says, is an InputError naming the smallest such key."""
    fields = _KEY_FIELDS[kind]
    entries = []
    count = 0
    for i, e in enumerate(json_value(data, "entries", path, list)):
        where = json_path(path, "entries[%d]" % i)
        key = tuple(json_value(e, f, where) for f in fields)
        classes = json_value(e, "classes", where, list)
        v, count = _read_classes(classes, where + ".classes", count)
        entries.append((key if len(fields) > 1 else key[0], v))
    keys = sorted(key for key, v in entries if not v.is_zero())
    for key, again in zip(keys, keys[1:]):
        if key == again:
            raise InputError(path, "repeated %s %s" % (kind, str(key).replace(" ", "")))
    return entries


class CohomologyTable(Checked, namedtuple("CohomologyTable", "label entries")):
    """A graded collection of MhsVectors indexed by cohomological degree:
    `entries` are (degree, MhsVector) pairs, normalised by `graded`."""

    __slots__ = ()

    def __new__(cls, label, entries=()):
        return super().__new__(cls, label, graded(entries))

    def entry(self, degree):
        return entry_at(self.entries, degree)

    def degrees(self):
        return tuple(d for d, _ in self.entries)

    def betti(self, max_degree):
        """Dimensions in degrees 0..max_degree; Avor3Error when a class lies
        outside them, which the vector would drop."""
        for d in self.degrees():
            if not 0 <= d <= max_degree:
                raise Avor3Error("table %r has classes in degree %d, outside 0..%d"
                                 % (self.label, d, max_degree))
        return tuple(self.entry(d).dimension() for d in range(max_degree + 1))

    def to_json_dict(self):
        return {"label": self.label, "entries": entries_to_json(self.entries, "degree")}

    @classmethod
    def from_json_dict(cls, data, path=""):
        """Inverse of `to_json_dict`; InputError naming the field, under `path`."""
        entries = entries_from_json(data, path, "degree")
        return cls(json_value(data, "label", path, str), entries)

