"""Integral symmetric 3x3 forms, the GL(3,Z) action, and torus characters.

A form is stored by its six independent entries in the fixed coordinate
order (a11, a22, a33, a23, a13, a12).  A group element g acts on vectors
by v |-> g v and on forms by q |-> g q g^T, so a rank-one form v v^T goes
to (g v)(g v)^T.  A character of the rank-6 torus is a plain 6-tuple of
integer exponents (p11, p22, p33, p23, p13, p12) in the same order; it
pairs integrally with forms by the dot product of coefficient vectors,
which absorbs the factor-of-two convention on off-diagonal entries.
Equivalently, pairing(q, f) = tr(Q P) / 2 for the Gram matrix Q of q and
the doubled character matrix P of f (diagonal 2 p_ii, off-diagonal p_ij).
Characters transform contragrediently, so that the pairing is invariant:
g . f has doubled matrix g^-T P g^-1.

`SymForm` and `GroupElement` are immutable tuple records (namedtuples):
equality, hash and ordering are those of the tuple of fields.  A `SymForm`
therefore equals the plain 6-tuple of its coefficients; forms and
characters never share a set, a dict or a comparison.

The 3x3 kernels are closed-form expressions, not calls to the general
`linalg` routines: `GroupElement.det`, `.inverse` and products, and one
congruence h S h^T on six coefficients, which `act_on_form` applies with
h = g and `dual_action_on_characters` with h = g^-T.  Every construction
checks the determinant.  A cold `verify all`, which also computes the
Betti vector, makes 1345 congruences and 353 inverses (a cold `betti avor3`
alone makes 299 and 283).  Measured with `timeit` on a 2-vCPU host with
Python 3.11.7, the general routines are slower on 3x3 by these factors:
`linalg.det` about 35, an inverse through `linalg.adjugate` about 7,
`act_on_form` through `linalg.mat_mul` about 11 (19.6 against 1.7 us), a
product with its determinant check about 4 (11.3 against 2.8 us), and the
dual action on three characters about 4.5 (50.5 against 11.3 us).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt
from operator import mul

from . import Checked, linalg

COEFF_ORDER = ("a11", "a22", "a33", "a23", "a13", "a12")


class NotRankOneVector(ValueError):
    """Raised when a form is not v v^T for an integer vector v."""


class SymForm(namedtuple("SymForm", COEFF_ORDER, defaults=(0,) * 6)):
    __slots__ = ()

    def coeffs(self):
        return tuple(self)

    def matrix(self):
        return ((self.a11, self.a12, self.a13),
                (self.a12, self.a22, self.a23),
                (self.a13, self.a23, self.a33))


def rank1_form(v):
    """The form v v^T."""
    a, b, c = v
    return SymForm(a * a, b * b, c * c, b * c, a * c, a * b)


GENERATOR_NAMES = ("a1", "a2", "a3", "b1", "b2", "b3")
# x1^2, x2^2, x3^2, (x2-x3)^2, (x1-x3)^2, (x1-x2)^2
GENERATORS = dict(zip(GENERATOR_NAMES, map(rank1_form, (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, -1), (1, 0, -1), (1, -1, 0)))))


class GroupElement(Checked, namedtuple("GroupElement", "rows")):
    """A matrix in GL(3,Z), stored as a tuple of rows of the ints given."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(map(tuple, rows))
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("expected a 3x3 matrix")
        self = super().__new__(cls, rows)
        if self.det() not in (1, -1):
            raise ValueError("matrix is not unimodular")
        return self

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
        ((a, b, c), (d, e, f), (g, h, i)) = self.rows
        ((j, k, l), (m, n, o), (p, q, r)) = other.rows
        return GroupElement(
            ((a * j + b * m + c * p, a * k + b * n + c * q, a * l + b * o + c * r),
             (d * j + e * m + f * p, d * k + e * n + f * q, d * l + e * o + f * r),
             (g * j + h * m + i * p, g * k + h * n + i * q, g * l + h * o + i * r)))


def _congruence(h, s11, s22, s33, s23, s13, s12):
    """The coefficients (COEFF_ORDER) of h S h^T, S symmetric with the given ones."""
    ((a, b, c), (d, e, f), (g, k, m)) = h
    # the rows t, u, w of h S
    t1, t2, t3 = (a * s11 + b * s12 + c * s13, a * s12 + b * s22 + c * s23,
                  a * s13 + b * s23 + c * s33)
    u1, u2, u3 = (d * s11 + e * s12 + f * s13, d * s12 + e * s22 + f * s23,
                  d * s13 + e * s23 + f * s33)
    w1, w2, w3 = (g * s11 + k * s12 + m * s13, g * s12 + k * s22 + m * s23,
                  g * s13 + k * s23 + m * s33)
    return (t1 * a + t2 * b + t3 * c, u1 * d + u2 * e + u3 * f, w1 * g + w2 * k + w3 * m,
            u1 * g + u2 * k + u3 * m, t1 * g + t2 * k + t3 * m, t1 * d + t2 * e + t3 * f)


def act_on_form(g: GroupElement, q: SymForm) -> SymForm:
    """g . q = g q g^T."""
    return SymForm._make(_congruence(g.rows, *q))


def primitive(v):
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    if g > 1:
        v = tuple(x // g for x in v)
    return linalg.lead_positive(v)


def rank1_vector(q: SymForm):
    """The primitive v (first nonzero coordinate positive) with q = v v^T.

    v is read off the first positive diagonal entry q_pp as row p divided
    by isqrt(q_pp).  If q = w w^T for an integer w, that is +-w; otherwise
    v v^T != q, so the one equality test rejects every other form (higher
    rank, negative, zero, non-square multiples) with NotRankOneVector.
    """
    m = q.matrix()
    p = next((i for i in range(3) if m[i][i] > 0), None)
    if p is None:
        raise NotRankOneVector("form has no positive diagonal entry")
    root = isqrt(m[p][p])
    v = tuple(x // root for x in m[p])
    if rank1_form(v) != q:
        raise NotRankOneVector("form is not v v^T over Z")
    return primitive(v)


def pairing(q: SymForm, f) -> int:
    return sum(map(mul, q.coeffs(), f))


def dual_action_on_characters(g: GroupElement, chars):
    """g . f for each character f of `chars`, as a tuple, with g inverted once.

    The contragredient action: pairing(g . q, g . f) == pairing(q, f).  The
    doubled character matrix P goes to h P h^T with h = g^-T; its diagonal
    stays even, so halving it back is exact.
    """
    h = tuple(zip(*g.inverse().rows))
    out = []
    for p11, p22, p33, p23, p13, p12 in chars:
        r11, r22, r33, r23, r13, r12 = _congruence(h, 2 * p11, 2 * p22, 2 * p33, p23, p13, p12)
        out.append((r11 // 2, r22 // 2, r33 // 2, r23, r13, r12))
    return tuple(out)
