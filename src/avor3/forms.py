"""Integral symmetric 3x3 forms, the GL(3,Z) action, and torus characters.

A form is stored by its six independent entries in the fixed coordinate
order (a11, a22, a33, a23, a13, a12).  A group element g acts on vectors
by v |-> g v and on forms by q |-> g q g^T, so a rank-one form v v^T goes
to (g v)(g v)^T.  Characters of the rank-6 torus use the same coordinate
order for their exponents and pair integrally with forms; the pairing is
the plain dot product of coefficient vectors, which absorbs the
factor-of-two convention on off-diagonal entries.  Equivalently,
pairing(q, f) = tr(Q P) / 2 for the Gram matrix Q of q and the doubled
character matrix P of f (diagonal 2 p_ii, off-diagonal p_ij).  Characters
transform contragrediently, so that the pairing is invariant: g . f has
doubled matrix g^-T P g^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from . import linalg

COEFF_ORDER = ("a11", "a22", "a33", "a23", "a13", "a12")


class NotRankOneVector(ValueError):
    """Raised when a form is not v v^T for an integer vector v."""


@dataclass(frozen=True, order=True)
class SymForm:
    a11: int = 0
    a22: int = 0
    a33: int = 0
    a23: int = 0
    a13: int = 0
    a12: int = 0

    @classmethod
    def from_matrix(cls, m):
        if (m[0][1] != m[1][0]) or (m[0][2] != m[2][0]) or (m[1][2] != m[2][1]):
            raise ValueError("matrix is not symmetric")
        return cls(m[0][0], m[1][1], m[2][2], m[1][2], m[0][2], m[0][1])

    @classmethod
    def from_coeffs(cls, coeffs):
        return cls(*map(int, coeffs))

    def coeffs(self):
        return (self.a11, self.a22, self.a33, self.a23, self.a13, self.a12)

    def matrix(self):
        return ((self.a11, self.a12, self.a13),
                (self.a12, self.a22, self.a23),
                (self.a13, self.a23, self.a33))

    def rank(self):
        return linalg.rank([list(r) for r in self.matrix()])


def square_form(i):
    """The form x_i^2 for i in {1, 2, 3}."""
    c = [0] * 6
    c[i - 1] = 1
    return SymForm.from_coeffs(c)


def difference_form(i):
    """The form (x_j - x_k)^2 where {i, j, k} = {1, 2, 3} and j < k."""
    j, k = [m for m in (1, 2, 3) if m != i]
    m = [[0] * 3 for _ in range(3)]
    m[j - 1][j - 1] = 1
    m[k - 1][k - 1] = 1
    m[j - 1][k - 1] = m[k - 1][j - 1] = -1
    return SymForm.from_matrix(m)


GENERATOR_NAMES = ("a1", "a2", "a3", "b1", "b2", "b3")
GENERATORS = {
    "a1": square_form(1), "a2": square_form(2), "a3": square_form(3),
    "b1": difference_form(1), "b2": difference_form(2), "b3": difference_form(3),
}

@dataclass(frozen=True)
class GroupElement:
    """A matrix in GL(3,Z), stored as a tuple of rows."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("expected a 3x3 matrix")
        if self.det() not in (1, -1):
            raise ValueError("matrix is not unimodular")

    @classmethod
    def identity(cls):
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def det(self):
        ((a, b, c), (d, e, f), (g, h, i)) = self.rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def inverse(self):
        ((a, b, c), (d, e, f), (g, h, i)) = self.rows
        dt = self.det()
        adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
               (f * g - d * i, a * i - c * g, c * d - a * f),
               (d * h - e * g, b * g - a * h, a * e - b * d))
        return GroupElement(tuple(tuple(x // dt for x in row) for row in adj))

    def __mul__(self, other):
        return GroupElement(tuple(
            tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(3))
                  for j in range(3))
            for i in range(3)))


def _congruence(h, m):
    """h m h^T for 3x3 matrices given as rows."""
    mh = [[sum(row[l] * hrow[l] for l in range(3)) for hrow in h] for row in m]
    return [[sum(h[i][k] * mh[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def act_on_form(g: GroupElement, q: SymForm) -> SymForm:
    """g . q = g q g^T."""
    return SymForm.from_matrix(_congruence(g.rows, q.matrix()))


def primitive(v):
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    if g > 1:
        v = tuple(x // g for x in v)
    return linalg.lead_positive(v)


def rank1_vector(q: SymForm):
    """The primitive v (first nonzero coordinate positive) with q = v v^T.

    Raises NotRankOneVector unless q is exactly v v^T for an integer v; in
    particular negative semidefinite rank-one forms are rejected.
    """
    if q.rank() != 1:
        raise NotRankOneVector("form has rank %d, expected 1" % q.rank())
    m = q.matrix()
    pivot = next((i for i in range(3) if m[i][i] != 0), None)
    if pivot is None or m[pivot][pivot] < 0:
        raise NotRankOneVector("form is not a square of an integer vector")
    root = isqrt(m[pivot][pivot])
    if root * root != m[pivot][pivot]:
        raise NotRankOneVector("diagonal entry %d is not a perfect square" % m[pivot][pivot])
    v = [0, 0, 0]
    v[pivot] = root
    for j in range(3):
        if j != pivot:
            if m[pivot][j] % root != 0:
                raise NotRankOneVector("entries are not products of an integer vector")
            v[j] = m[pivot][j] // root
    if any(m[i][j] != v[i] * v[j] for i in range(3) for j in range(3)):
        raise NotRankOneVector("form is not v v^T over Z")
    return primitive(v)


@dataclass(frozen=True, order=True)
class Character:
    """A character of the rank-6 torus, stored by integer exponents.

    Exponent order matches COEFF_ORDER: (p11, p22, p33, p23, p13, p12).
    """

    p11: int = 0
    p22: int = 0
    p33: int = 0
    p23: int = 0
    p13: int = 0
    p12: int = 0

    @classmethod
    def from_exponents(cls, exps):
        return cls(*map(int, exps))

    def exponents(self):
        return (self.p11, self.p22, self.p33, self.p23, self.p13, self.p12)


def pairing(q: SymForm, f: Character) -> int:
    return sum(a * p for a, p in zip(q.coeffs(), f.exponents()))


def dual_action_on_character(g: GroupElement, f: Character) -> Character:
    """The contragredient action: pairing(g . q, g . f) == pairing(q, f).

    The doubled character matrix P goes to g^-T P g^-1; its diagonal stays
    even, so halving it back is exact.
    """
    doubled = ((2 * f.p11, f.p12, f.p13),
               (f.p12, 2 * f.p22, f.p23),
               (f.p13, f.p23, 2 * f.p33))
    m = _congruence(tuple(zip(*g.inverse().rows)), doubled)
    return Character(m[0][0] // 2, m[1][1] // 2, m[2][2] // 2, m[1][2], m[0][2], m[0][1])
