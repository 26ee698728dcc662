"""Bookkeeping for the Hodge structures appearing in the computation.

Everything that occurs is a direct sum of one-dimensional Tate pieces Q(-n)
(weight 2n) plus copies of a single two-dimensional atom F: the non-split
extension of Q by Q(-3) showing up in middle degree of the open moduli
part.  F has weight multiset {0, 6}; its weight-0 piece is a sub-object, so
a rank-one map from a weight-0 class into F can cancel it and leave Q(-3),
while cancelling the weight-6 piece leaves Q.  F does not admit Tate twists
here (none are ever needed), and twisting it raises UnsupportedTwist.

Tables and pages hold graded entries, a tuple of (key, MhsVector) sorted by
key (a degree or a (p, q) position), no key repeated and no vector zero;
only this module builds, sums, looks up, reads and writes them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby

MAX_CLASSES = 10_000  # classes, counted with multiplicity, in one entries array
_KEY_FIELDS = {"degree": ("degree",), "position": ("p", "q")}


class UnsupportedTwist(ValueError):
    """Tate twist requested for the extension atom F."""


def weight_counts(tates, f_count):
    """{weight: dimension} of the Tate pieces `tates` plus `f_count` atoms F."""
    counts = {}
    for n in tates:
        counts[2 * n] = counts.get(2 * n, 0) + 1
    if f_count:
        counts[0] = counts.get(0, 0) + f_count
        counts[6] = counts.get(6, 0) + f_count
    return counts


def remove_weight(tates, f_count, w, k=1):
    """Drop k dimensions of weight w (a differential cancelled them).

    `tates` is a sorted tuple of Tate exponents.  Tate pieces of weight w go
    first; each further dimension splits an F atom, whose complementary
    piece stays as a pure Tate class: weight 0 leaves Q(-3), weight 6 leaves
    Q.  Returns the new (tates, f_count), or None when fewer than k
    dimensions of weight w are there.
    """
    if w % 2:
        return None
    n = w // 2
    lo = bisect_left(tates, n)
    hi = bisect_right(tates, n, lo)
    taken = min(k, hi - lo)
    tates = tates[:lo] + tates[lo + taken:]
    split = k - taken
    if split:
        if w not in (0, 6) or split > f_count:
            return None
        left = 3 if w == 0 else 0
        at = bisect_left(tates, left)
        tates = tates[:at] + (left,) * split + tates[at:]
        f_count -= split
    return tates, f_count


_KIND_NAMES = {int: "an integer", list: "a list", str: "a string", dict: "an object"}


def json_path(path, field):
    """`field` under the document position `path` ("" for the top level)."""
    return path + "." + field if path else field


@contextmanager
def located(path):
    """Put `path`, a document position, in front of a ValueError raised in
    the block; the top level ("") adds nothing."""
    try:
        yield
    except ValueError as exc:
        if not path:
            raise
        raise ValueError("%s: %s" % (path, exc)) from None


def json_value(obj, key, path, kind=int, minimum=None, default=None):
    """obj[key] from a parsed JSON document, checked to be of type `kind`.

    Integers must be exactly int (a bool is rejected) and at least `minimum`
    when one is given.  A missing key takes `default`, and is an error when
    there is none.  Every error is a ValueError that names `path`, the
    position of `obj` in the document.
    """
    where = path + ": " if path else ""
    if not isinstance(obj, dict):
        raise ValueError("%sexpected an object" % where)
    if key not in obj:
        if default is None:
            raise ValueError('%smissing "%s"' % (where, key))
        return default
    value = obj[key]
    if type(value) is not kind:
        raise ValueError('%s"%s" must be %s' % (where, key, _KIND_NAMES[kind]))
    if minimum is not None and value < minimum:
        raise ValueError('%s"%s" must be at least %d' % (where, key, minimum))
    return value


@dataclass(frozen=True, order=True)
class MhsVector:
    """A finite multiset of Tate pieces plus copies of the atom F."""

    tates: tuple = ()
    f_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tates", tuple(sorted(self.tates)))
        if self.f_count < 0:
            raise ValueError("negative multiplicity")

    @classmethod
    def tate(cls, n, mult=1):
        return cls(tates=(n,) * mult)

    def is_zero(self):
        return not self.tates and self.f_count == 0

    def dimension(self):
        return len(self.tates) + 2 * self.f_count

    def __add__(self, other):
        return MhsVector(self.tates + other.tates, self.f_count + other.f_count)

    def weights(self):
        """The weight multiset as a sorted tuple (F contributes 0 and 6)."""
        w = [2 * n for n in self.tates]
        w.extend([0, 6] * self.f_count)
        return tuple(sorted(w))

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
        """Inverse of `to_classes`; ValueError (naming `path`) on a malformed class."""
        return _read_classes(classes, path, 0)[0]

    def __str__(self):
        return spell(self, lambda n: "Q" if n == 0 else "Q(%d)" % (-n), "F", "%s^%d", " + ")


def _read_classes(classes, path, count):
    """(MhsVector, count plus its classes) of a JSON class list; ValueError
    naming `path` on a malformed class, or before a class would take the
    count past MAX_CLASSES."""
    tates = []
    f_count = 0
    for i, c in enumerate(classes):
        where = "%s[%d]" % (path, i)
        mult = json_value(c, "mult", where, minimum=1, default=1)
        count += mult
        if count > MAX_CLASSES:
            raise ValueError("%s: more than %d classes in all entries" % (where, MAX_CLASSES))
        if "atom" in c:
            if c["atom"] != "F":
                raise ValueError("%s: unknown atom %r" % (where, c["atom"]))
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


def graded(pairs):
    """Graded entries of (key, MhsVector) pairs: the vectors at one key summed
    (one new MhsVector for a key with several), zeros dropped, sorted by key."""
    parts = {}
    for key, v in pairs:
        parts.setdefault(key, []).append(v)
    summed = [(key, vs[0] if len(vs) == 1 else
               MhsVector(tuple(n for u in vs for n in u.tates), sum(u.f_count for u in vs)))
              for key, vs in sorted(parts.items())]
    return tuple(e for e in summed if not e[1].is_zero())


def canonical(entries, kind):
    """`entries` sorted by key with zero vectors dropped; a repeated key, a
    "degree" or a "position" as `kind` says, is a ValueError naming it."""
    out = tuple(sorted(e for e in entries if not e[1].is_zero()))
    for (key, _), (again, _) in zip(out, out[1:]):
        if key == again:
            raise ValueError("repeated %s %s" % (kind, str(key).replace(" ", "")))
    return out


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
    ValueError naming the field, under `path`.  All entries together hold
    at most MAX_CLASSES classes, counted with multiplicity."""
    fields = _KEY_FIELDS[kind]
    entries = []
    count = 0
    for i, e in enumerate(json_value(data, "entries", path, list)):
        where = json_path(path, "entries[%d]" % i)
        key = tuple(json_value(e, f, where) for f in fields)
        classes = json_value(e, "classes", where, list)
        v, count = _read_classes(classes, where + ".classes", count)
        entries.append((key if len(fields) > 1 else key[0], v))
    return entries


@dataclass(frozen=True)
class CohomologyTable:
    """A graded collection of MhsVectors indexed by cohomological degree."""

    label: str
    entries: tuple = ()  # sorted tuple of (degree, MhsVector), zero entries dropped

    def __post_init__(self):
        object.__setattr__(self, "entries", canonical(self.entries, "degree"))

    def entry(self, degree):
        return entry_at(self.entries, degree)

    def degrees(self):
        return tuple(d for d, _ in self.entries)

    def euler_characteristic(self):
        return sum((-1) ** d * v.dimension() for d, v in self.entries)

    def betti(self, max_degree):
        return tuple(self.entry(d).dimension() for d in range(max_degree + 1))

    def to_json_dict(self):
        return {"label": self.label, "entries": entries_to_json(self.entries, "degree")}

    @classmethod
    def from_json_dict(cls, data, path=""):
        """Inverse of `to_json_dict`; ValueError naming the field, under `path`."""
        entries = entries_from_json(data, path, "degree")
        label = json_value(data, "label", path, str)
        with located(path):
            return cls(label, entries)

