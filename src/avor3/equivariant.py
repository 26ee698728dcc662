"""Finite subgroups of GL(n,Z) and their exterior-power invariants.

Every group here acts on an integral lattice, so matrices are tuples of
int tuples and all arithmetic stays in the integers.  Invariant dimensions
of wedge powers are computed two independent ways.  The production route is
a Molien-style sum of the coefficients of det(I + t g) over the group,
closed on the orbits of the basis vectors so that a product is n index
lookups; each element keeps its character value and determinant, and its
matrix is read from its columns in the orbit (Newton's identities on the
traces of g^j for j <= n/2, the upper coefficients by the symmetry
e_(n-k) = det(g) e_k), divided by the group order once.  The oracle that
cross-checks it never closes the group: a vector is fixed by the group
exactly when each generator fixes it, so the invariants of each wedge power
are the kernel of the generators' induced matrices minus the identity,
stacked, and their dimension is one exact rank.  All wedge powers of a
generator come from one Laplace sweep over its minors
(`linalg.exterior_powers`), so the two routes share no step.

Each `LinearRep` closes its group once, on first use, and keeps the closure,
which `group_closure`, `group_order` and the Molien route all read.  Only
that closure detects an infinite group (NotClosedWithinCap) or a
sign character that is not well-defined on the group (InputError); a failed
closure is not kept, so it raises again on every call.  Every cross-check
runs Molien, so it validates the input for both routes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from itertools import accumulate, chain
from math import comb
from operator import getitem, mul

from . import Avor3Error, Checked, InputError, linalg


CAP = 10000  # bound on group orders and element orders
# largest dimension the oracle and `LinearRep.from_json_dict` (so `equi
# invariants --rep`) accept; the oracle's k-th wedge powers have C(n, k)^2 entries
MAX_DIMENSION = 6


class NotClosedWithinCap(Avor3Error):
    """Generating more group elements, or a larger element order, than CAP."""


def _freeze(m):
    return tuple(map(tuple, m))


class LinearRep(Checked, namedtuple("LinearRep", "dimension generators signs")):
    """A finite subgroup of GL(n,Z) given by generating integer matrices.

    `signs` optionally assigns each generator a value of a multiplicative
    order-two character; invariants are then taken with that twist.  Only
    Python ints are accepted (no bool, float or str), and every generator
    must have determinant +-1, as every integer matrix of finite order does.
    An immutable tuple record (namedtuple); the generators' determinants
    and the closure are kept on the instance, not as fields, so equality,
    hash and repr ignore them.
    """

    def __new__(cls, dimension, generators, signs=None):
        n = dimension
        if type(n) is not int or n < 0:
            raise InputError("", "dimension must be a nonnegative integer")
        try:
            gens = tuple(_freeze(g) for g in generators)
            signs = None if signs is None else tuple(signs)
        except TypeError:
            raise InputError("", "generators must be a list of matrices, "
                                 "signs a list of +-1") from None
        dets = []
        for g in gens:
            if len(g) != n or any(len(row) != n for row in g):
                raise InputError("", "generator shape does not match dimension")
            if any(type(x) is not int for row in g for x in row):
                raise InputError("", "generator entries must be integers")
            d = linalg.det(g)
            if d not in (1, -1):
                raise InputError("", "generator has determinant %d, not +-1" % d)
            dets.append(d)
        if signs is not None:
            if len(signs) != len(gens) or any(type(s) is not int or s not in (1, -1)
                                              for s in signs):
                raise InputError("", "signs must be one value in {1, -1} per generator")
        self = super().__new__(cls, n, gens, signs)
        self._determinants = tuple(dets)  # the closure's: the routes share only these checks
        return self

    @classmethod
    def from_json_dict(cls, data):
        """The representation a JSON document states: "dimension", at most
        MAX_DIMENSION, "generators" and optional "signs"; InputError if malformed."""
        if not isinstance(data, dict):
            raise InputError("", "a representation must be a JSON object")
        for key in ("dimension", "generators"):
            if key not in data:
                raise InputError("representation", 'missing "%s"' % key)
        dim = data["dimension"]
        if type(dim) is int and dim > MAX_DIMENSION:
            raise InputError("representation", '"dimension" must be at most %d' % MAX_DIMENSION)
        return cls(dim, data["generators"], data.get("signs"))

    @cached_property
    def _closed(self):
        """`_closure(self)`, computed on first use and kept on the instance."""
        return _closure(self)


def _closure(rep: LinearRep):
    """(orbit O of e_1 .. e_n, elements), O a tuple.

    An element x, the tuple of O-indices of its columns, maps to
    (chi(x), det x); both are multiplicative, so the breadth-first walk
    carries them from the generators' signs and determinants.  Callers share
    the dict through `LinearRep._closed`, so it is read-only.
    NotClosedWithinCap past CAP elements or n CAP orbit vectors (then an
    orbit exceeds CAP); InputError if chi is ill-defined.
    """
    n = rep.dimension
    signs = rep.signs or tuple(1 for _ in rep.generators)
    orbit = [tuple(row) for row in linalg.identity(n)]
    index = {v: i for i, v in enumerate(orbit)}
    acts = [[] for _ in rep.generators]
    for v in orbit:  # the list grows while it is walked
        for g, act in zip(rep.generators, acts):
            w = tuple([sum(map(mul, row, v)) for row in g])
            i = index.get(w)
            if i is None:
                i = index[w] = len(orbit)
                orbit.append(w)
                if i >= n * CAP:
                    raise NotClosedWithinCap("more than %d elements generated" % CAP)
            act.append(i)
    ident = tuple(range(n))
    elements, queue = {ident: (1, 1)}, [ident]
    for m in queue:  # breadth first: the queue grows while it is walked
        val, det = elements[m]
        for act, s, d in zip(acts, signs, rep._determinants):
            prod = tuple(map(act.__getitem__, m))
            known = elements.get(prod)
            if known is None:
                elements[prod] = (val * s, det * d)
                queue.append(prod)
                if len(elements) > CAP:
                    raise NotClosedWithinCap("more than %d elements generated" % CAP)
            elif known[0] != val * s:
                raise InputError("", "sign character is not well-defined on the group")
    return tuple(orbit), elements


def group_closure(rep: LinearRep):
    """All elements of the generated group as sorted (matrix, character value) pairs."""
    orbit, elements = rep._closed
    return sorted((tuple(zip(*map(orbit.__getitem__, m))), v)
                  for m, (v, _) in elements.items())


def group_order(rep: LinearRep):
    """The number of elements of the generated group, from its one closure."""
    return len(rep._closed[1])


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

    Each x in G has finite order, so its eigenvalues are closed under
    inversion and the t^(n-k) coefficient of det(I + t x) is det(x) times
    the t^k one.  Newton's identities therefore need the traces of x^j for
    j <= n/2 only, read from x's columns, the orbit vectors of its record:
    tr x from the diagonal, and tr x^(j+1) = sum_ik (x^j)_ik x_ki, one dot
    product for tr x^2, matrix powers only from n = 6 on.  For even n and
    det(x) = -1 the middle coefficient is 0, as it equals its own negative,
    so one trace fewer is needed.
    The coefficients are summed over the group in integers and divided by
    |G| once.  With a sign character the result is the dimension of the
    isotypic part for that character in each wedge power.
    """
    orbit, elements = rep._closed
    n = rep.dimension
    half = n // 2
    weights = Counter()  # (det, power traces) -> signed count of elements with them
    for m, (s, d) in elements.items():
        cols = [orbit[k] for k in m]  # cols[k][i] = x_ik
        h = half - (d < 0 and n % 2 == 0)  # the traces needed
        traces = [sum(map(getitem, cols, range(n)))]  # tr x
        # tr x^(j+1) = sum_ik (x^j)_ik x_ki, with the rows of x^j for j = 1 .. h-1
        for power in accumulate([list(zip(*cols))] * (h - 1), linalg.mat_mul):
            traces.append(sum(map(mul, chain.from_iterable(power), chain.from_iterable(cols))))
        weights[d, tuple(traces[:h])] += s
    total = [0] * (n + 1)
    for (d, traces), count in weights.items():
        low = linalg.elementary_from_power_sums(traces)  # e_0 .. e_half
        low += [0] * (half + 1 - len(low))  # e_(n/2) = 0 when its trace was skipped
        for j, e in enumerate(low + [d * e for e in reversed(low[:n - half])]):
            total[j] += count * e
    out = [divmod(t, len(elements)) for t in total]
    if any(rem or val < 0 for val, rem in out):
        raise AssertionError("group average is not a nonnegative integer")
    return tuple(val for val, _ in out)


def fixed_subspace_dims_bruteforce(rep: LinearRep):
    """Oracle for exterior_invariant_dims: kernels of the generators' wedge powers.

    For each k, dim (Lambda^k V)^(G, chi) = C(n, k) - rank of the stack over
    generators g of (Lambda^k g - chi(g) I), since a vector is in the chi-part
    for the group exactly when it is for every generator (Serre, Linear
    Representations of Finite Groups, 2.6).  Only the generators' exterior
    powers are formed, all of one generator in one Laplace sweep, and the
    group is never closed, so this shares no step with the Molien route.
    For that reason it does not itself detect an infinite group
    (NotClosedWithinCap) or an ill-defined sign character; only the closure
    does, which the Molien route reads on every cross-check.
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
