"""Finite subgroups of GL(n,Z) and their exterior-power invariants.

Every group here acts on an integral lattice, so matrices are tuples of
int tuples and all arithmetic stays in the integers.  Invariant dimensions
of wedge powers are computed two independent ways.  The production route is
a Molien-style sum of the coefficients of det(I + t g) over the closed
group (Newton's identities on power traces), divided by the group order
once.  The oracle that cross-checks it never closes the group: a vector is
fixed by the group exactly when each generator fixes it, so the invariants
of each wedge power are the kernel of the generators' induced matrices
minus the identity, stacked, and their dimension is one exact rank.  All
wedge powers of a generator come from one Laplace sweep over its minors
(`linalg.exterior_powers`), so the two routes share no step.

Only the closure, and so only the Molien route, detects an infinite group
(NotClosedWithinCap) or a sign character that is not well-defined on the
group (ValueError); every cross-check runs Molien, so it validates the
input for both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from operator import mul

from . import linalg


CAP = 10000  # bound on group orders and element orders
# largest dimension the oracle and `equi invariants --rep` accept; the
# Molien route's power traces cost about n^4 in the dimension n
MAX_DIMENSION = 6


class NotClosedWithinCap(RuntimeError):
    """Generating more group elements, or a larger element order, than CAP."""


def _freeze(m):
    return tuple(map(tuple, m))


@dataclass(frozen=True)
class LinearRep:
    """A finite subgroup of GL(n,Z) given by generating integer matrices.

    `signs` optionally assigns each generator a value of a multiplicative
    order-two character; invariants are then taken with that twist.  Only
    Python ints are accepted (no bool, float or str), and every generator
    must have determinant +-1, as every integer matrix of finite order does.
    """

    dimension: int
    generators: tuple
    signs: tuple = None

    def __post_init__(self):
        n = self.dimension
        if type(n) is not int or n < 0:
            raise ValueError("dimension must be a nonnegative integer")
        try:
            gens = tuple(_freeze(g) for g in self.generators)
            signs = None if self.signs is None else tuple(self.signs)
        except TypeError:
            raise ValueError("generators must be a list of matrices, "
                             "signs a list of +-1") from None
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if len(g) != n or any(len(row) != n for row in g):
                raise ValueError("generator shape does not match dimension")
            if any(type(x) is not int for row in g for x in row):
                raise ValueError("generator entries must be integers")
            d = linalg.det(g)
            if d not in (1, -1):
                raise ValueError("generator has determinant %d, not +-1" % d)
        if signs is not None:
            if len(signs) != len(gens) or any(type(s) is not int or s not in (1, -1)
                                              for s in signs):
                raise ValueError("signs must be one value in {1, -1} per generator")
            object.__setattr__(self, "signs", signs)


def group_closure(rep: LinearRep):
    """All elements of the generated group as (matrix, character value) pairs.

    Breadth-first products of generators, each element carrying its
    character value; raises NotClosedWithinCap once more than CAP distinct
    elements appear, and ValueError if the declared sign character is not
    constant on each element.  Each generator's columns are taken once, and
    each product is looked up once.
    """
    ident = _freeze(linalg.identity(rep.dimension))
    signs = rep.signs or tuple(1 for _ in rep.generators)
    gens = [(tuple(zip(*g)), s) for g, s in zip(rep.generators, signs)]
    chi = {ident: 1}
    frontier = [(ident, 1)]
    while frontier:
        nxt = []
        for m, val in frontier:
            for cols, s in gens:
                prod = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in m)
                v, size = val * s, len(chi)
                if chi.setdefault(prod, v) != v:
                    raise ValueError("sign character is not well-defined on the group")
                if len(chi) > size:
                    nxt.append((prod, v))
                    if len(chi) > CAP:
                        raise NotClosedWithinCap("more than %d elements generated" % CAP)
        frontier = nxt
    return sorted(chi.items())


def element_order(m):
    """Multiplicative order of a matrix of finite order."""
    ident = _freeze(linalg.identity(len(m)))
    m = _freeze(m)
    p, k = m, 1
    while p != ident:
        p = _freeze(linalg.mat_mul(p, m))
        k += 1
        if k > CAP:
            raise NotClosedWithinCap("element order exceeds %d" % CAP)
    return k


def order_histogram(mats):
    """{element order: count} over an iterable of matrices."""
    hist = Counter(element_order(m) for m in mats)
    return dict(sorted(hist.items()))


def exterior_invariant_dims(rep: LinearRep):
    """(dim (Lambda^k V)^G)_{k=0..n} via the group average of det(I + t g).

    The coefficients are summed over the group in integers and divided by
    |G| once.  With a sign character the result is the dimension of the
    isotypic part for that character in each wedge power.
    """
    group = group_closure(rep)
    n = rep.dimension
    total = [0] * (n + 1)
    for mat, s in group:
        coeffs = linalg.char_poly_elementary(mat)
        for k in range(n + 1):
            total[k] += s * coeffs[k]
    out = []
    for t in total:
        val, rem = divmod(t, len(group))
        if rem or val < 0:
            raise AssertionError("group average is not a nonnegative integer")
        out.append(val)
    return tuple(out)


def fixed_subspace_dims_bruteforce(rep: LinearRep):
    """Oracle for exterior_invariant_dims: kernels of the generators' wedge powers.

    For each k, dim (Lambda^k V)^(G, chi) = C(n, k) - rank of the stack over
    generators g of (Lambda^k g - chi(g) I), since a vector is in the chi-part
    for the group exactly when it is for every generator (Serre, Linear
    Representations of Finite Groups, 2.6).  Only the generators' exterior
    powers are formed, all of one generator in one Laplace sweep, and the
    group is never closed, so this shares no step with the Molien route.
    For that reason it does not itself detect an infinite group
    (NotClosedWithinCap) or an ill-defined sign character; only
    group_closure does, which the Molien route runs on every cross-check.
    Restricted to dimension <= MAX_DIMENSION.
    """
    if rep.dimension > MAX_DIMENSION:
        raise ValueError("brute-force oracle restricted to dimension <= %d" % MAX_DIMENSION)
    n = rep.dimension
    signs = rep.signs or tuple(1 for _ in rep.generators)
    stacks = [[] for _ in range(n + 1)]
    for g, s in zip(rep.generators, signs):
        for stack, wedge in zip(stacks, linalg.exterior_powers(g)):
            for i, row in enumerate(wedge):
                row[i] -= s
            stack.extend(wedge)
    return tuple(comb(n, k) - linalg.rank(stack) for k, stack in enumerate(stacks))


def h1_pullback(b):
    """Pullback on H^1 of a product of two elliptic curves.

    `b` is a 2x2 integer matrix describing an endomorphism of E x E by
    integer combinations of the two factors; on H^1 = Q^2 (+) Q^2 it induces
    the block matrix b^T tensor I_2.
    """
    out = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            out[2 * i][2 * j] = b[j][i]
            out[2 * i + 1][2 * j + 1] = b[j][i]
    return tuple(tuple(row) for row in out)
