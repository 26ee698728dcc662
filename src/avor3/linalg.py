"""Exact linear algebra over the integers.

Every matrix in this package is integral, so everything here takes and
returns plain Python ints: ranks and determinants by fraction-free
elimination, row Hermite normal forms by Euclid's algorithm on row pairs,
adjugates, and all exterior powers of a matrix in one Laplace sweep, all
exact.  Matrices are lists (or tuples) of rows; vectors are flat sequences.

`fan` takes every lattice frame from `hermite_form`: each cone's frame of
the span of its generator vectors, computed once per cone and read by every
`equivalent` and `stabilizer` search and by the cusp rank, and the inverse
of the basic cone's unimodular generator matrix, off whose dual basis it
reads each stratum's character lattice.  So no lattice kernel is needed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import mul


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def lead_positive(v):
    """v or -v as a tuple, whichever has its first nonzero entry positive."""
    return tuple(-x for x in v) if next((x for x in v if x), 0) < 0 else tuple(v)


def _eliminate(a):
    """Row echelon form of a copy of an integer matrix by Bareiss elimination.

    Returns (rows, pivot column list, sign of the row permutation).  After the
    k-th pivot step every Bareiss entry below the pivot rows is a
    (k+1) x (k+1) minor of `a`, so each division by the previous pivot is
    exact (Bareiss 1968) and no intermediate leaves the integers.

    The elimination is lazy.  A row with 0 in the pivot column would only be
    scaled by p_k / p_(k-1), and across skipped steps these factors
    telescope, so the row is left as it is and keeps one divisor: the pivot
    of the step before the one that last rewrote it (1 for a row never
    rewritten).  Its Bareiss value is its stored value times the previous
    pivot over that divisor.  When the row is next rewritten, the step
    divides by the row's divisor instead of the previous pivot, which
    applies the pending factor in the same pass; when it becomes the pivot
    row it is first multiplied by the previous pivot and divided exactly by
    its divisor.  So each pivot row is the eager Bareiss row, and every row
    below the last pivot row is zero.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    divisors = [1] * rows  # divisors[i]: what the next rewrite of row i divides by
    sign, r, prev = 1, 0, 1  # prev: the pivot of the previous step
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            divisors[r], divisors[pivot] = divisors[pivot], divisors[r]
            sign = -sign
        top = m[r]
        if divisors[r] != prev:
            top = m[r] = [x * prev // divisors[r] for x in top]
        p = top[c]
        for i in range(r + 1, rows):
            f = m[i][c]
            if f:
                m[i] = [(p * x - f * y) // divisors[i] for x, y in zip(m[i], top)]
                divisors[i] = p
        prev = p
        pivots.append(c)
        r += 1
    return m, pivots, sign


def rank(a):
    if not a or not a[0]:
        return 0
    return len(_eliminate(a)[1])


def det(a):
    """Determinant of a square integer matrix; the last Bareiss pivot."""
    n = len(a)
    if n == 0:
        return 1
    m, pivots, sign = _eliminate(a)
    return sign * m[-1][-1] if len(pivots) == n else 0


def hermite_form(a):
    """Row Hermite normal form of an integer matrix.

    Returns (h, u) with u unimodular and u a = h.  The row operations run on
    the augmented matrix [a | I], so whatever they do to h they do to u, and
    the right block ends as u.  Column by column, Euclid's algorithm on row
    pairs (H. Cohen, A Course in Computational Algebraic Number Theory,
    section 2.4) clears each entry below the pivot row r: row r loses
    q = h[r][c] // h[i][c] times row i and the two rows swap, until h[i][c]
    is 0.  A nonzero pivot is then made positive, the rows above it are
    reduced into [0, pivot), and r moves down; a column with no nonzero
    entry from row r down gets no pivot.

    h is unique: the row space of a fixes the matrix with positive pivots,
    zeros below them, entries above them in [0, pivot) and zero rows last.
    u is not when the rank is below the row count, since adding multiples
    of the rows of u that give zero rows of h to the others leaves u a = h;
    so a different elimination order may return a different u.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(row) + e for row, e in zip(a, identity(rows))]  # [h | u]
    r = 0
    for c in range(cols):
        for i in range(r + 1, rows):
            while m[i][c]:
                q = m[r][c] // m[i][c]
                m[r], m[i] = m[i], [x - q * y for x, y in zip(m[r], m[i])]
        if r < rows and m[r][c]:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            r += 1
    return [row[:cols] for row in m], [row[cols:] for row in m]


def adjugate(a):
    """Integer adjugate: adjugate(a) a = a adjugate(a) = det(a) I."""
    n = len(a)
    rows = [list(row) for row in a]
    return [[(-1) ** (i + j) * det([row[:j] + row[j + 1:]
                                     for k, row in enumerate(rows) if k != i])
             for i in range(n)] for j in range(n)]


def elementary_from_power_sums(p):
    """(e_0, ..., e_n) from power sums (p_1, ..., p_n) by Newton's identities.

    With p_k = tr(a^k) for an integer matrix a, e_k is the t^k coefficient of
    det(I + t a) and k divides sum_i (-1)^(i-1) e_(k-i) p_i; that is checked.
    """
    e = [1]
    for k in range(1, len(p) + 1):
        s = sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1))
        if s % k:
            raise AssertionError("Newton identity sum is not divisible by %d" % k)
        e.append(s // k)
    return e


@lru_cache(maxsize=None)
def _laplace_plan(n):
    """The index work of `exterior_powers` for n x n matrices, a pure function
    of n: for each k = 1..n, the k-subsets of range(n) in lexicographic order,
    each paired with the index of its tail (the subset without its first
    element) among the (k-1)-subsets, and per column subset its Laplace
    terms (column, index of the subset without it, odd position).  Tuples
    throughout, so nothing cached can be mutated."""
    plan = []
    below_index = {(): 0}
    for k in range(1, n + 1):
        subsets = tuple(combinations(range(n), k))
        rows = tuple((s[0], below_index[s[1:]]) for s in subsets)
        expand = tuple(tuple((j, below_index[cols[:p] + cols[p + 1:]], p % 2)
                             for p, j in enumerate(cols)) for cols in subsets)
        plan.append((rows, expand))
        below_index = {s: i for i, s in enumerate(subsets)}
    return tuple(plan)


def exterior_powers(a):
    """[Lambda^0 a, Lambda^1 a, ..., Lambda^n a] of a square matrix in one sweep.

    Rows and columns of Lambda^k a are indexed by the k-subsets of
    coordinates in lexicographic order; entries are the k x k minors.  Each
    minor is the Laplace expansion along its first row over the
    (k-1) x (k-1) minors of the level below, so every minor is formed once
    from k products, and terms with a zero factor are skipped.  The expansion
    plan (which subsets, which terms, which signs) is a pure function of n,
    built once per dimension per process by `_laplace_plan`; only the minors
    are computed per call, into fresh nested lists the caller may mutate.
    """
    powers = [[[1]]]
    for rows, expand in _laplace_plan(len(a)):
        below = powers[-1]
        level = []
        for first, tail in rows:
            top = a[first]
            minors = below[tail]
            row = []
            for terms in expand:
                s = 0
                for j, r, odd in terms:
                    x = top[j]
                    if x:
                        y = minors[r]
                        if y:
                            s = s - x * y if odd else s + x * y
                row.append(s)
            level.append(row)
        powers.append(level)
    return powers
