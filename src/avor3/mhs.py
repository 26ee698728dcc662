"""Bookkeeping for the Hodge structures appearing in the computation.

Everything that occurs is a direct sum of one-dimensional Tate pieces Q(-n)
(weight 2n) plus copies of a single two-dimensional atom F: the non-split
extension of Q by Q(-3) showing up in middle degree of the open moduli
part.  F has weight multiset {0, 6}; its weight-0 piece is a sub-object, so
a rank-one map from a weight-0 class into F can cancel it and leave Q(-3),
while cancelling the weight-6 piece leaves Q.  F does not admit Tate twists
here (none are ever needed), and twisting it raises UnsupportedTwist.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass


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
        object.__setattr__(self, "tates", tuple(sorted(int(n) for n in self.tates)))
        if self.f_count < 0:
            raise ValueError("negative multiplicity")

    @classmethod
    def zero(cls):
        return cls()

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

    def to_classes(self):
        out = []
        for n, mult in sorted(Counter(self.tates).items()):
            out.append({"tate": n, "mult": mult})
        out.extend({"atom": "F"} for _ in range(self.f_count))
        return out

    @classmethod
    def from_classes(cls, classes, path="classes"):
        """Inverse of `to_classes`; ValueError (naming `path`) on a malformed class."""
        tates = []
        f_count = 0
        for i, c in enumerate(classes):
            where = "%s[%d]" % (path, i)
            mult = json_value(c, "mult", where, minimum=1, default=1)
            if "atom" in c:
                if c["atom"] != "F":
                    raise ValueError("%s: unknown atom %r" % (where, c["atom"]))
                f_count += mult
            else:
                tates.extend([json_value(c, "tate", where, minimum=0)] * mult)
        return cls(tuple(tates), f_count)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for n, mult in sorted(Counter(self.tates).items()):
            base = "Q" if n == 0 else "Q(%d)" % (-n)
            parts.append(base if mult == 1 else "%s^%d" % (base, mult))
        if self.f_count:
            parts.append("F" if self.f_count == 1 else "F^%d" % self.f_count)
        return " + ".join(parts)


@dataclass(frozen=True)
class CohomologyTable:
    """A graded collection of MhsVectors indexed by cohomological degree."""

    label: str
    entries: tuple = ()  # sorted tuple of (degree, MhsVector), zero entries dropped

    def __post_init__(self):
        cleaned = tuple(sorted((int(d), v) for d, v in self.entries if not v.is_zero()))
        if len({d for d, _ in cleaned}) != len(cleaned):
            raise ValueError("repeated degree")
        object.__setattr__(self, "entries", cleaned)

    def entry(self, degree):
        for d, v in self.entries:
            if d == degree:
                return v
        return MhsVector.zero()

    def degrees(self):
        return tuple(d for d, _ in self.entries)

    def add(self, other, label=None):
        acc = {}
        for d, v in self.entries + other.entries:
            acc[d] = acc.get(d, MhsVector.zero()) + v
        return CohomologyTable(label or self.label, tuple(acc.items()))

    def euler_characteristic(self):
        return sum((-1) ** d * v.dimension() for d, v in self.entries)

    def betti(self, max_degree):
        return tuple(self.entry(d).dimension() for d in range(max_degree + 1))

    def to_json_dict(self):
        return {
            "label": self.label,
            "entries": [{"degree": d, "classes": v.to_classes()} for d, v in self.entries],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data, path=""):
        """Inverse of `to_json_dict`; ValueError naming the field, under `path`."""
        entries = []
        for i, e in enumerate(json_value(data, "entries", path, list)):
            where = json_path(path, "entries[%d]" % i)
            entries.append((json_value(e, "degree", where),
                            MhsVector.from_classes(json_value(e, "classes", where, list),
                                                   where + ".classes")))
        return cls(json_value(data, "label", path, str), tuple(entries))

