"""Exact linear algebra over the integers and rationals.

Everything in this package runs on plain Python ints and
fractions.Fraction, so every rank, kernel and solve below is exact.
Matrices are lists (or tuples) of rows; vectors are flat sequences.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_int(a):
    """Cast a rational matrix with integral entries to ints; ValueError otherwise."""
    out = []
    for row in a:
        r = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValueError("entry %s is not an integer" % (x,))
            r.append(f.numerator)
        out.append(r)
    return out


def _echelon(a):
    """Row-reduce a copy of `a` over Q; return (rows, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a):
    if not a or not a[0]:
        return 0
    return len(_echelon(a)[1])


def det(a):
    """Determinant over Q by fraction Gaussian elimination."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * result


def solve(a, b):
    """Solve a x = b exactly for square nonsingular a; None if singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    m, pivots = _echelon(aug)
    if pivots != list(range(n)):
        return None
    return [m[i][n] for i in range(n)]


def inverse(a):
    """Exact inverse of a square rational matrix; None if singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    m, pivots = _echelon(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]


def solve_in_span(basis_rows, target):
    """Express `target` as a rational combination of `basis_rows`; None if outside."""
    if not basis_rows:
        return [] if all(x == 0 for x in target) else None
    cols = len(basis_rows[0])
    aug = [[Fraction(basis_rows[j][c]) for j in range(len(basis_rows))] + [Fraction(target[c])]
           for c in range(cols)]
    m, pivots = _echelon(aug)
    k = len(basis_rows)
    if k in pivots:
        return None
    coeffs = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        coeffs[c] = m[r][k]
    # confirm (guards against rank-deficient bases)
    for c in range(cols):
        if sum(coeffs[j] * basis_rows[j][c] for j in range(k)) != target[c]:
            return None
    return coeffs


def hermite_form(a):
    """Row Hermite normal form of an integer matrix.

    Returns (h, u) with u unimodular and u a = h; h has its pivot entries
    positive and is zero below each pivot.  Plain integer row reduction; the
    matrices here are tiny so no care about coefficient growth is needed.
    """
    h = [list(map(int, row)) for row in a]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity(rows)
    r = 0
    for c in range(cols):
        # gcd sweep on column c below row r
        while True:
            nz = [i for i in range(r, rows) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            h[r], h[i0] = h[i0], h[r]
            u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, rows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < rows and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
            if r == rows:
                break
    return h, u


def int_kernel(a):
    """Basis of the saturated lattice {x in Z^n : a x = 0} as rows.

    Computed from the Hermite form of the transpose: the transformation rows
    that reduce a^T to zero rows span the kernel over Z.
    """
    if not a:
        return identity(0)
    n = len(a[0])
    at = [[int(a[i][j]) for i in range(len(a))] for j in range(n)]
    h, u = hermite_form(at)
    kernel = [u[i] for i in range(n) if all(x == 0 for x in h[i])]
    # normalize sign so each basis row leads with a positive entry
    out = []
    for row in kernel:
        lead = next((x for x in row if x != 0), 1)
        out.append([-x for x in row] if lead < 0 else list(row))
    return out


def int_det(a):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        if m[c][c] == 0:
            pivot = next((i for i in range(c + 1, n) if m[i][c] != 0), None)
            if pivot is None:
                return 0
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * m[-1][-1] if n else 1


def adjugate(a):
    """Integer adjugate: adjugate(a) a = a adjugate(a) = int_det(a) I."""
    n = len(a)
    rows = [list(row) for row in a]
    return [[(-1) ** (i + j) * int_det([row[:j] + row[j + 1:]
                                         for k, row in enumerate(rows) if k != i])
             for i in range(n)] for j in range(n)]


def traces_of_powers(a, kmax):
    """[tr(a^1), ..., tr(a^kmax)] exactly."""
    n = len(a)
    out = []
    p = a
    for _ in range(kmax):
        out.append(sum(p[i][i] for i in range(n)))
        p = mat_mul(p, a)
    return out


def char_poly_elementary(a):
    """Coefficients (e_0, ..., e_n) of det(I + t a) = sum e_k t^k.

    Newton's identities turn the power-sum traces into elementary symmetric
    functions of the eigenvalues, all over Q.
    """
    n = len(a)
    p = traces_of_powers(a, n) if n else []
    e = [Fraction(1)]
    for k in range(1, n + 1):
        s = Fraction(0)
        for i in range(1, k + 1):
            s += (-1) ** (i - 1) * e[k - i] * p[i - 1]
        e.append(s / k)
    return e


def minor(a, row_idx, col_idx):
    return det([[a[i][j] for j in col_idx] for i in row_idx])


def exterior_power_matrix(a, k):
    """Matrix of the induced map on the k-th exterior power.

    Rows and columns are indexed by the k-subsets of coordinates in
    lexicographic order; entries are the corresponding k x k minors.
    """
    n = len(a)
    subsets = list(combinations(range(n), k))
    return [[minor(a, rows, cols) for cols in subsets] for rows in subsets]
