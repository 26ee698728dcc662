import random
from math import isqrt
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from avor3 import linalg
from avor3.fan import GENERATOR_NAMES, SIGMA6
from avor3.forms import (COEFF_ORDER, GroupElement, NotRankOneVector, SymForm, act_on_form,
                         dual_action_on_characters, pairing, primitive, rank1_form,
                         rank1_vector)
from avor3.verify import random_unimodular


def test_coeff_order_and_matrix_roundtrip():
    assert COEFF_ORDER == ("a11", "a22", "a33", "a23", "a13", "a12")
    q = SymForm(1, 2, 3, 4, 5, 6)
    assert q.matrix() == ((1, 6, 5), (6, 2, 4), (5, 4, 3))
    # a form is its coefficient tuple
    assert q == (1, 2, 3, 4, 5, 6) and SymForm(*q) == q


def test_generators_are_squares_of_expected_vectors():
    expected = {
        "a1": (1, 0, 0), "a2": (0, 1, 0), "a3": (0, 0, 1),
        "b1": (0, 1, -1), "b2": (1, 0, -1), "b3": (1, -1, 0),
    }
    generators = dict(zip(GENERATOR_NAMES, SIGMA6.generators))
    for name, vec in expected.items():
        q = generators[name]
        assert q.matrix() == tuple(tuple(a * b for b in vec) for a in vec)
        assert rank1_vector(q) == vec
    assert generators["a1"] == SymForm(a11=1)
    assert generators["b1"] == SymForm(a22=1, a33=1, a23=-1)
    assert GENERATOR_NAMES == ("a1", "a2", "a3", "b1", "b2", "b3")


def test_rank1_vector_rejects_higher_rank_and_negatives():
    with pytest.raises(NotRankOneVector):
        rank1_vector(SymForm(1, 1, 0, 0, 0, 0))  # x1^2 + x2^2
    with pytest.raises(NotRankOneVector):
        rank1_vector(SymForm(-1, 0, 0, 0, 0, 0))
    with pytest.raises(NotRankOneVector):
        rank1_vector(SymForm())


def test_rank1_vector_recovers_primitive_leading_positive():
    rng = random.Random(3)
    for _ in range(40):
        v = [rng.randint(-4, 4) for _ in range(3)]
        if all(x == 0 for x in v):
            continue
        got = rank1_vector(rank1_form(v))
        assert got == primitive(v)
        assert next(x for x in got if x) > 0


_VECTORS = st.tuples(*[st.integers(-5, 5)] * 3).filter(any)
_NON_SQUARES = st.integers(2, 60).filter(lambda k: isqrt(k) ** 2 != k)


@settings(max_examples=200, deadline=None)
@given(_VECTORS)
def test_rank1_form_and_vector_are_inverse(v):
    q = rank1_form(v)
    assert q.matrix() == tuple(tuple(a * b for b in v) for a in v)
    assert rank1_vector(q) == primitive(v)


@settings(max_examples=200, deadline=None)
@given(_VECTORS, _NON_SQUARES)
def test_rank1_vector_rejects_non_square_and_negative_multiples(v, k):
    coeffs = rank1_form(v)
    for scale in (k, -1):
        with pytest.raises(NotRankOneVector):
            rank1_vector(SymForm(*(scale * x for x in coeffs)))
    with pytest.raises(NotRankOneVector):
        rank1_vector(SymForm())


@settings(max_examples=200, deadline=None)
@given(_VECTORS, _VECTORS)
def test_rank1_vector_rejects_sums_of_independent_squares(v, w):
    assume(linalg.rank([v, w]) == 2)
    q = SymForm(*map(add, rank1_form(v), rank1_form(w)))
    with pytest.raises(NotRankOneVector):
        rank1_vector(q)


def test_primitive_reduces_gcd():
    assert primitive((2, -4, 6)) == (1, -2, 3)
    assert primitive((0, -3, 0)) == (0, 1, 0)


def test_group_element_validation_and_inverse():
    with pytest.raises(ValueError, match="not unimodular"):
        GroupElement(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    for rows in (((1, 0), (0, 1)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1), (0, 0, 1))):
        with pytest.raises(ValueError, match="expected a 3x3 matrix"):
            GroupElement(rows)
    g = GroupElement(((0, 1, 0), (1, 0, 0), (0, 0, -1)))
    assert g * g.inverse() == GroupElement.identity()


_ELEMENTARY = st.tuples(st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j]),
                        st.integers(-3, 3))
_EXPONENTS = st.lists(st.integers(-5, 5), min_size=6, max_size=6)


def elementary_product(flip, steps):
    """diag(-1 if flip else 1, 1, 1) times the elementary matrices I + k e_ij."""
    g = GroupElement(((-1 if flip else 1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for (i, j), k in steps:
        rows = [[int(r == c) for c in range(3)] for r in range(3)]
        rows[i][j] = k
        g = g * GroupElement(rows)
    return g


_GROUP_ELEMENTS = st.builds(elementary_product, st.booleans(),
                            st.lists(_ELEMENTARY, max_size=8))


@settings(max_examples=200, deadline=None)
@given(_GROUP_ELEMENTS, _GROUP_ELEMENTS, st.lists(st.integers(), min_size=6, max_size=6))
def test_action_matches_congruence(g, h, coeffs):
    # the closed forms agree with the general matrix product: g . q has Gram
    # matrix g Q g^T, and g * h is the product of the rows
    q = SymForm(*coeffs)
    m = linalg.mat_mul(linalg.mat_mul(g.rows, q.matrix()), list(zip(*g.rows)))
    assert act_on_form(g, q).matrix() == tuple(map(tuple, m))
    assert g * h == GroupElement(linalg.mat_mul(g.rows, h.rows))


def test_action_is_a_group_action():
    rng = random.Random(9)
    for _ in range(25):
        g, h = random_unimodular(rng), random_unimodular(rng)
        q = SymForm(*[rng.randint(-3, 3) for _ in range(6)])
        assert act_on_form(g * h, q) == act_on_form(g, act_on_form(h, q))
    q = SymForm(1, 2, 3, -1, 0, 2)
    assert act_on_form(GroupElement.identity(), q) == q


def test_action_moves_rank1_vectors_by_the_matrix():
    rng = random.Random(13)
    for _ in range(25):
        g = random_unimodular(rng)
        v = (1, 2, -1)
        q = rank1_form(v)
        w = rank1_vector(act_on_form(g, q))
        # image line is spanned by g v
        assert w == primitive(linalg.mat_vec(g.rows, v))


def form_action_matrix(g):
    """The 6x6 matrix of q |-> g . q on coefficient vectors, by columns."""
    basis = [SymForm(*[int(i == j) for j in range(6)]) for i in range(6)]
    cols = [act_on_form(g, b) for b in basis]
    return [[cols[j][i] for j in range(6)] for i in range(6)]


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.lists(_ELEMENTARY, max_size=8), _EXPONENTS, _EXPONENTS)
def test_form_action_matrix_consistency(flip, steps, coeffs, exps):
    # the character action is the coefficient adjoint of the inverse form action
    g = elementary_product(flip, steps)
    q = SymForm(*coeffs)
    phi = form_action_matrix(g)
    assert tuple(linalg.mat_vec(phi, coeffs)) == act_on_form(g, q)
    adjoint = list(zip(*form_action_matrix(g.inverse())))
    assert dual_action_on_characters(g, [exps]) == (tuple(linalg.mat_vec(adjoint, exps)),)


def test_pairing_is_dual_invariant():
    rng = random.Random(21)
    for _ in range(25):
        g = random_unimodular(rng)
        q = SymForm(*[rng.randint(-3, 3) for _ in range(6)])
        chars = [tuple(rng.randint(-3, 3) for _ in range(6)) for _ in range(3)]
        for f, gf in zip(chars, dual_action_on_characters(g, chars)):
            assert pairing(act_on_form(g, q), gf) == pairing(q, f)


def test_dual_action_composes_like_the_source_action():
    rng = random.Random(25)
    for _ in range(15):
        g, h = random_unimodular(rng), random_unimodular(rng)
        chars = [tuple(rng.randint(-2, 2) for _ in range(6)) for _ in range(2)]
        lhs = dual_action_on_characters(g * h, chars)
        rhs = dual_action_on_characters(g, dual_action_on_characters(h, chars))
        assert lhs == rhs
