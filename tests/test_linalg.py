import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from avor3 import linalg
from avor3.equivariant import MAX_DIMENSION


def random_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_identity():
    assert linalg.identity(2) == [[1, 0], [0, 1]]


def test_mat_mul_matches_manual():
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    assert linalg.mat_mul(a, b) == [[19, 22], [43, 50]]
    assert linalg.mat_vec(a, [1, 1]) == [3, 7]


def test_rank_and_det_small_cases():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.det([[2, 0], [0, 3]]) == 6
    assert linalg.det([[0, 1], [1, 0]]) == -1


def test_det_multiplicative():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert linalg.det(linalg.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


def _assert_hermite_normal_form(a):
    before = [list(row) for row in a]
    h, u = linalg.hermite_form(a)
    assert [list(row) for row in a] == before  # the input is not mutated
    assert linalg.det(u) in (1, -1)
    assert linalg.mat_mul(u, a) == h
    pivots = [next((j for j, x in enumerate(row) if x), None) for row in h]
    r = len(pivots) - pivots.count(None)
    # zero rows come last and the pivot columns increase
    assert pivots[r:] == [None] * (len(h) - r)
    assert pivots[:r] == sorted(set(pivots[:r]))
    for i, c in enumerate(pivots[:r]):
        assert h[i][c] > 0
        assert all(h[k][c] == 0 for k in range(i + 1, len(h)))
        # reduced above the pivot: this is what makes h unique
        assert all(0 <= h[k][c] < h[i][c] for k in range(i))


def test_hermite_form_properties():
    rng = random.Random(13)
    matrices = [[], [[]], [[0, 0, 0], [0, 0, 0]]]
    # random shapes, and 3 x k like the frames of `fan.Cone.frame`
    shapes = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(150)]
    shapes += [(3, rng.randint(1, 6)) for _ in range(150)]
    for rows, cols in shapes:
        bound = rng.choice((1, 6, 1000))
        if rng.random() < 0.5:
            a = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        else:  # rank at most k < rows: every row a combination of k rows
            basis = [[rng.randint(-bound, bound) for _ in range(cols)]
                     for _ in range(rng.randint(0, rows - 1))]
            a = []
            for _ in range(rows):
                f = [rng.randint(-3, 3) for _ in basis]
                a.append([sum(x * b[j] for x, b in zip(f, basis)) for j in range(cols)])
        matrices.append(a)
    for a in matrices:
        _assert_hermite_normal_form(a)


def leibniz_det(a):
    """Reference determinant: the signed sum over all permutations."""
    total = 0
    for perm in permutations(range(len(a))):
        sign = 1
        for i, j in combinations(range(len(perm)), 2):
            if perm[i] > perm[j]:
                sign = -sign
        term = sign
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def test_det_and_adjugate_match_leibniz():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(0, 4)
        a = random_matrix(rng, n, -2, 2)  # small entries: singular matrices occur
        d = linalg.det(a)
        assert d == leibniz_det(a)
        scaled = [[d * x for x in row] for row in linalg.identity(n)]
        adj = linalg.adjugate(a)
        assert linalg.mat_mul(adj, a) == scaled
        assert linalg.mat_mul(a, adj) == scaled


@st.composite
def _matrices(draw, max_rows=4, max_cols=4):
    """Small integer matrices; a product through a narrow middle is rank deficient."""
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    inner = draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    left = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                         min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=inner, max_size=inner))
    return linalg.mat_mul(left, right)


@st.composite
def _sparse_matrices(draw, max_size=5):
    """Mostly-zero integer matrices: many rows hold 0 in a pivot column, so
    they lag behind the elimination for several steps, pivot rows included."""
    rows, cols = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    if draw(st.booleans()):
        cols = rows
    entries = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=250, deadline=None)
@given(st.one_of(_matrices(), _sparse_matrices()))
def test_rank_is_largest_nonzero_minor(a):
    rows, cols = len(a), len(a[0])
    expected = max(k for k in range(min(rows, cols) + 1)
                   if k == 0 or any(leibniz_det([[a[i][j] for j in c] for i in r])
                                    for r in combinations(range(rows), k)
                                    for c in combinations(range(cols), k)))
    assert linalg.rank(a) == expected
    m, pivots, _ = linalg._eliminate(a)
    assert not any(x for row in m[len(pivots):] for x in row)
    if rows == cols:
        assert linalg.det(a) == leibniz_det(a)


def test_lazy_elimination_row_lagging_two_steps_becomes_the_pivot():
    # Row 3 is 0 in the pivot columns of steps 0 and 1, so it is scaled by
    # neither; at step 2 it is the only row with a nonzero in column 2 and is
    # brought current (times p_1 = 5 over d_0 = 1) as the pivot row.  The old
    # row 2 then lags one step and becomes the last pivot (times 25 / 5).
    a = [[2, 1, 0, 1],
         [1, 3, 0, 0],
         [1, 1, 0, 1],
         [0, 0, 5, 1]]
    m, pivots, sign = linalg._eliminate(a)
    assert m == [[2, 1, 0, 1], [0, 5, 0, -1], [0, 0, 25, 5], [0, 0, 0, 15]]
    assert (pivots, sign) == ([0, 1, 2, 3], -1)
    assert linalg.det(a) == leibniz_det(a) == -15
    assert linalg.rank(a) == 4


def principal_minor_sum(a, k):
    n = len(a)
    total = 0
    for idx in combinations(range(n), k):
        total += linalg.det([[a[i][j] for j in idx] for i in idx])
    return total


def test_elementary_from_power_sums_matches_principal_minors():
    # coefficient of t^k in det(I + t a) is the sum of k x k principal minors;
    # the power sums tr(a^j) come from repeated products
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(0, 4)
        a = random_matrix(rng, n, -3, 3)
        traces, p = [], a
        for _ in range(n):
            traces.append(sum(p[i][i] for i in range(n)))
            p = linalg.mat_mul(p, a)
        coeffs = linalg.elementary_from_power_sums(traces)
        assert len(coeffs) == n + 1
        for k in range(n + 1):
            assert coeffs[k] == principal_minor_sum(a, k)


def test_elementary_from_power_sums_checks_divisibility():
    # power sums (1, 0) would need e_2 = 1/2: no integer matrix has them
    with pytest.raises(AssertionError, match="not divisible by 2"):
        linalg.elementary_from_power_sums((1, 0))


def exterior_minors(a):
    """Lambda^0 a .. Lambda^n a by Leibniz determinants of every k x k submatrix."""
    n = len(a)
    return [[[leibniz_det([[a[i][j] for j in cols] for i in rows]) for cols in subsets]
             for rows in subsets]
            for subsets in (list(combinations(range(n), k)) for k in range(n + 1))]


# every dimension the projector oracle accepts, so each cached plan is checked
_SQUARE = st.integers(0, MAX_DIMENSION).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(_SQUARE)
def test_exterior_powers_are_the_minors(a):
    n = len(a)
    powers = linalg.exterior_powers(a)
    assert len(powers) == n + 1
    assert powers == exterior_minors(a)
    assert powers[0] == [[1]]
    if n:
        assert powers[1] == a
    assert powers[n] == [[linalg.det(a)]]


def test_exterior_powers_of_the_empty_matrix():
    assert linalg.exterior_powers([]) == [[[1]]]


@settings(max_examples=30, deadline=None)
@given(_SQUARE)
def test_mutating_a_result_leaves_the_next_call_intact(a):
    # the oracle subtracts a sign from the diagonal of each wedge in place;
    # the plan cached for this dimension must not see that
    for wedge in linalg.exterior_powers(a):
        for i, row in enumerate(wedge):
            row[i] -= 1
    assert linalg.exterior_powers(a) == exterior_minors(a)
    at = [list(col) for col in zip(*a)]
    assert linalg.exterior_powers(at) == exterior_minors(at)


def test_exterior_powers_are_multiplicative():
    # Cauchy-Binet: Lambda^k (a b) = Lambda^k a Lambda^k b
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 4)
        a, b = random_matrix(rng, n, -3, 3), random_matrix(rng, n, -3, 3)
        lhs = linalg.exterior_powers(linalg.mat_mul(a, b))
        rhs = [linalg.mat_mul(x, y)
               for x, y in zip(linalg.exterior_powers(a), linalg.exterior_powers(b))]
        assert lhs == rhs
