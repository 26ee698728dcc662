from itertools import permutations
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from avor3 import InputError, equivariant, linalg
from avor3.equivariant import (MAX_DIMENSION, LinearRep, NotClosedWithinCap, element_order,
                               exterior_invariant_dims,
                               fixed_subspace_dims_bruteforce, group_closure,
                               group_order, h1_pullback, order_histogram)

SWAP2 = ((0, 1), (1, 0))
ROT3 = ((0, 1, 0), (0, 0, 1), (1, 0, 0))


def test_group_closure_symmetric_group():
    # transposition and 3-cycle generate S3 as permutation matrices
    t = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    group = group_closure(LinearRep(3, (t, ROT3)))
    assert len(group) == 6
    assert order_histogram([m for m, _ in group]) == {1: 1, 2: 3, 3: 2}


def test_group_closure_cap():
    shear = ((1, 1), (0, 1))  # infinite order
    rep = LinearRep(2, (shear,))
    # a failed closure is not kept, so every call on the one rep raises again
    for call in (group_closure, group_closure, group_order, exterior_invariant_dims):
        with pytest.raises(NotClosedWithinCap, match="more than 10000 elements"):
            call(rep)
    with pytest.raises(NotClosedWithinCap, match="element order exceeds 10000"):
        element_order(shear)


def test_sign_character_consistency():
    with pytest.raises(ValueError):
        group_closure(LinearRep(2, (((1, 0), (0, 1)),), signs=(-1,)))


def test_element_order():
    assert element_order(((1, 0), (0, 1))) == 1
    assert element_order(SWAP2) == 2
    assert element_order(ROT3) == 3


def test_exterior_invariants_of_s2_swap():
    rep = LinearRep(2, (SWAP2,))
    assert exterior_invariant_dims(rep) == (1, 1, 0)
    assert fixed_subspace_dims_bruteforce(rep) == (1, 1, 0)


def test_signed_isotypic_dimensions():
    # swap with the sign character: invariants become the alternating part
    rep = LinearRep(2, (SWAP2,), signs=(-1,))
    assert exterior_invariant_dims(rep) == (0, 1, 1)
    assert fixed_subspace_dims_bruteforce(rep) == (0, 1, 1)


def test_trivial_group_sees_everything():
    rep = LinearRep(3, ())
    assert exterior_invariant_dims(rep) == (1, 3, 3, 1)


def _closure(gens, signs, cap):
    """{element: character value} of the generated group; None past cap elements.

    A breadth-first closure written here, independent of group_closure.
    """
    ident = tuple(tuple(row) for row in linalg.identity(len(gens[0])))
    chi = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g, s in zip(gens, signs):
                mg = tuple(tuple(sum(m[i][k] * g[k][j] for k in range(len(g)))
                                 for j in range(len(g))) for i in range(len(g)))
                if mg not in chi:
                    chi[mg] = chi[m] * s
                    nxt.append(mg)
                    if len(chi) > cap:
                        return None
        frontier = nxt
    return chi


def _projector_sum_dims(rep):
    """Invariant dimensions by the closure and the summed induced matrices.

    The rank of sum_g chi(g) Lambda^k g, which is |G| times the projector
    onto the chi-part of Lambda^k V.
    """
    n = rep.dimension
    group = _closure(rep.generators, rep.signs or (1,) * len(rep.generators), 10 ** 4)
    sums = [[[0] * comb(n, k) for _ in range(comb(n, k))] for k in range(n + 1)]
    for mat, s in group.items():
        for acc, wedge in zip(sums, linalg.exterior_powers(mat)):
            for acc_row, row in zip(acc, wedge):
                for j, x in enumerate(row):
                    acc_row[j] += s * x
    return tuple(linalg.rank(acc) for acc in sums)


def _reference_molien(rep):
    """Molien by matrix arithmetic on the closure above.

    For each element g, tr(g^j) comes from matrix powers, only up to
    h = ceil(n / 2) of them, the higher traces as tr(g^h g^j); Newton's
    identities turn them into the coefficients of det(I + t g), which are
    summed with the character and divided by the group order.
    """
    n = rep.dimension
    group = _closure(rep.generators, rep.signs or (1,) * len(rep.generators), 10 ** 4)
    total = [0] * (n + 1)
    for mat, s in group.items():
        h = (n + 1) // 2
        powers = [mat]
        while len(powers) < h:
            powers.append(linalg.mat_mul(powers[-1], mat))
        p = [sum(q[i][i] for i in range(n)) for q in powers]
        p += [sum(powers[-1][i][k] * q[k][i] for i in range(n) for k in range(n))
              for q in powers[:n - h]]
        e = [1]
        for k in range(1, n + 1):
            t = sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1))
            assert t % k == 0
            e.append(t // k)
        for k in range(n + 1):
            total[k] += s * e[k]
    assert all(t % len(group) == 0 for t in total)
    return tuple(t // len(group) for t in total)


def _parity(perm):
    return (-1) ** sum(perm[i] > perm[j] for i in range(len(perm))
                       for j in range(i + 1, len(perm)))


@st.composite
def conjugated_signed_permutation_groups(draw, max_dim=4, max_order=None):
    """(rep, conjugate rep): signed permutations, then u g u^-1 for a random u.

    A drawn generator is dropped when it would take the group past
    `max_order` elements.  The group optionally carries one of three sign
    characters of signed permutations: the determinant, the parity of the
    permutation or the product of the signs.  u is a product of elementary
    matrices, so the conjugated generators are dense integer matrices of the
    same finite group.
    """
    dim = draw(st.integers(2, max_dim))
    character = draw(st.sampled_from((None, "det", "parity", "flips")))
    gens, signs = [], []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(dim)))
        flips = draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
        g = [[flips[i] if j == perm[i] else 0 for j in range(dim)] for i in range(dim)]
        s = {None: 1, "det": linalg.det(g), "parity": _parity(perm),
             "flips": prod(flips)}[character]
        if gens and max_order and _closure(gens + [g], signs + [s], max_order) is None:
            continue
        gens.append(g)
        signs.append(s)
    u, u_inv = linalg.identity(dim), linalg.identity(dim)
    steps = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 2), st.integers(-2, 2))
    for i, j, k in draw(st.lists(steps, max_size=6)):
        j += j >= i  # j != i
        e, e_inv = linalg.identity(dim), linalg.identity(dim)
        e[i][j], e_inv[i][j] = k, -k
        u, u_inv = linalg.mat_mul(e, u), linalg.mat_mul(u_inv, e_inv)
    conj = [linalg.mat_mul(linalg.mat_mul(u, g), u_inv) for g in gens]
    signs = tuple(signs) if character else None
    return LinearRep(dim, gens, signs), LinearRep(dim, conj, signs)


@settings(max_examples=50, deadline=None)
@given(conjugated_signed_permutation_groups())
def test_group_closure_matches_independent_closure(reps):
    for rep in reps:
        group = group_closure(rep)
        signs = rep.signs or (1,) * len(rep.generators)
        assert dict(group) == _closure(rep.generators, signs, 10 ** 4)
        assert group == sorted(group)
        assert group_order(rep) == len(group)


@settings(max_examples=50, deadline=None)
@given(conjugated_signed_permutation_groups())
def test_each_closure_record_holds_the_character_and_the_determinant(reps):
    for rep in reps:
        orbit, elements = rep._closed
        chi = dict(group_closure(rep))
        for m, (s, d) in elements.items():
            x = tuple(zip(*(orbit[k] for k in m)))  # the columns orbit[m[j]]
            assert (s, d) == (chi[x], linalg.det(x))


@settings(max_examples=25, deadline=None)
@given(conjugated_signed_permutation_groups())
def test_dual_route_agreement_on_random_groups(reps):
    rep, conj = reps
    assert len(group_closure(conj)) == len(group_closure(rep))
    molien = exterior_invariant_dims(conj)
    assert molien == fixed_subspace_dims_bruteforce(conj)
    assert molien == exterior_invariant_dims(rep)


@settings(max_examples=25, deadline=None)
@given(conjugated_signed_permutation_groups(max_dim=6, max_order=24))
def test_generator_kernel_oracle_matches_molien_and_projector_sum(reps):
    rep, conj = reps
    oracle = fixed_subspace_dims_bruteforce(conj)
    assert oracle == fixed_subspace_dims_bruteforce(rep)
    assert oracle == exterior_invariant_dims(conj)
    assert oracle == _projector_sum_dims(conj)


def test_a_representation_closes_its_group_once(monkeypatch):
    closures = []
    close = equivariant._closure
    monkeypatch.setattr(equivariant, "_closure", lambda rep: closures.append(rep) or close(rep))
    t = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    rep = LinearRep(3, (t, ROT3), signs=(-1, 1))
    assert fixed_subspace_dims_bruteforce(rep) == (0, 0, 1, 1)
    assert closures == []  # the oracle never closes the group
    assert len(group_closure(rep)) == group_order(rep) == 6
    assert exterior_invariant_dims(rep) == (0, 0, 1, 1)
    assert group_closure(rep) == group_closure(LinearRep(3, (t, ROT3), signs=(-1, 1)))
    assert closures == [rep, rep]  # one for each of the two equal representations


_CLOSING_CALLS = (group_closure, group_order, exterior_invariant_dims,
                  fixed_subspace_dims_bruteforce)


@settings(max_examples=20, deadline=None)
@given(conjugated_signed_permutation_groups(max_dim=3))
def test_the_kept_closure_changes_no_result_and_no_identity(reps):
    # each call on its own fresh representation, against all four on one
    # representation in every order; equality, hash and repr ignore the closure
    for rep in reps:
        fields = (rep.dimension, rep.generators, rep.signs)
        expected = [call(LinearRep(*fields)) for call in _CLOSING_CALLS]
        for order in permutations(_CLOSING_CALLS):
            closed = LinearRep(*fields)
            got = {call: call(closed) for call in order}
            assert [got[call] for call in _CLOSING_CALLS] == expected
            twin = LinearRep(*fields)
            assert (closed, hash(closed), repr(closed)) == (twin, hash(twin), repr(twin))


def test_oracle_rejects_dimension_seven():
    with pytest.raises(ValueError, match="dimension <= 6"):
        fixed_subspace_dims_bruteforce(LinearRep(7, ()))


@pytest.mark.parametrize("generators, signs", [
    ([[[0.5, 1], [1, 0]]], None),              # float entry
    ([[[0, 0], [0, 0]]], None),                # det 0
    ([[[2, 0], [0, 1]]], None),                # det 2: infinite order
    ([[["0", True], [1, 0]]], None),           # str and bool entries
    ([[[0, 1], [1, 0]]], [1.9]),               # float sign
    ([[[0, 1], [1, 0]]], [True]),              # bool sign
    ([[[0, 1], [1, 0]]], [2]),                 # not +-1
    (5, None),                                 # not a list of matrices
])
def test_linear_rep_rejects_malformed_input(generators, signs):
    with pytest.raises(ValueError):
        LinearRep(2, generators, signs)


@pytest.mark.parametrize("dimension", [2.0, True, "2", -1])
def test_linear_rep_rejects_malformed_dimension(dimension):
    with pytest.raises(ValueError):
        LinearRep(dimension, ())


def test_h1_pullback_shape_and_contravariance():
    b = ((1, 2), (0, 1))
    m = h1_pullback(b)
    assert len(m) == 4 and all(len(r) == 4 for r in m)
    b2 = ((0, 1), (1, 0))
    prod = tuple(tuple(sum(b[i][k] * b2[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))
    lhs = h1_pullback(prod)
    m2 = h1_pullback(b2)
    rhs = tuple(tuple(sum(m2[i][k] * m[k][j] for k in range(4)) for j in range(4))
                for i in range(4))
    assert tuple(tuple(row) for row in lhs) == rhs


def test_molien_rejects_nothing_on_identity_signs():
    rep = LinearRep(2, (SWAP2,), signs=(1,))
    assert exterior_invariant_dims(rep) == exterior_invariant_dims(LinearRep(2, (SWAP2,)))


@settings(max_examples=30, deadline=None)
@given(conjugated_signed_permutation_groups(max_dim=6, max_order=96))
def test_orbit_molien_matches_matrix_molien(reps):
    for rep in reps:
        assert exterior_invariant_dims(rep) == _reference_molien(rep)


def _signed_permutation_generators(n):
    """A transposition, an n-cycle and one sign change: they generate B_n."""
    swap = [[1 if j == (1, 0, *range(2, n))[i] else 0 for j in range(n)] for i in range(n)]
    cycle = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    flip = [[(-1 if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
    return [swap, cycle, flip]


def test_element_cap_with_small_orbits():
    # B6 has 46080 elements, but its orbits hold only the 12 vectors +-e_i
    with pytest.raises(NotClosedWithinCap, match="more than 10000 elements"):
        group_closure(LinearRep(6, _signed_permutation_generators(6)))


def test_molien_on_free_orbits():
    # B3 x B1 conjugated by v, whose columns have distinct nonzero absolute
    # values: every basis orbit is free, so the orbit holds 4 |G| = 384
    # vectors and each of them is one column of exactly one element
    v = ((-4, 1, 2, 1), (-3, -2, -3, -2), (-2, -3, -1, -4), (-3, 1, 2, 1))
    v_inv = linalg.adjugate(v)  # det v = 1
    gens = [[row + [0] for row in g] + [[0, 0, 0, 1]] for g in _signed_permutation_generators(3)]
    gens.append([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    conj = [linalg.mat_mul(linalg.mat_mul(v_inv, g), v) for g in gens]
    dets = tuple(linalg.det(g) for g in gens)
    for signs, dims in ((None, (1, 0, 0, 0, 0)),
                        ((1, 1, 1, -1), (0, 1, 0, 0, 0)),  # the B1 factor's sign
                        (dets, (0, 0, 0, 0, 1))):
        rep = LinearRep(4, conj, signs)
        assert group_order(rep) == 96 and len(rep._closed[0]) == 4 * 96
        assert exterior_invariant_dims(rep) == fixed_subspace_dims_bruteforce(rep) == dims


def test_dimension_zero():
    rep = LinearRep(0, ())
    assert group_closure(rep) == [((), 1)]
    assert exterior_invariant_dims(rep) == (1,)


def test_dimension_one():
    # n = 1: no power trace; e_1 is det(x)
    rep = LinearRep(1, (((-1,),),))
    assert exterior_invariant_dims(rep) == fixed_subspace_dims_bruteforce(rep) == (1, 0)
    twisted = LinearRep(1, (((-1,),),), signs=(-1,))
    assert exterior_invariant_dims(twisted) == fixed_subspace_dims_bruteforce(twisted) == (0, 1)


def test_generator_listed_twice_with_both_signs():
    rep = LinearRep(2, (SWAP2, SWAP2), signs=(1, -1))
    for call in (group_closure, group_order, exterior_invariant_dims):
        with pytest.raises(InputError, match="sign character is not well-defined"):
            call(rep)


def test_large_groups_molien_matches_oracle():
    b5 = LinearRep(5, _signed_permutation_generators(5))
    # S7 on the A6 root lattice: the simple reflections a_j -> a_j - C_ij a_i,
    # C the Cartan matrix, in the basis of simple roots
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(6)]
              for i in range(6)]
    s7 = LinearRep(6, [[[(r == j) - (r == i) * cartan[i][j] for j in range(6)]
                        for r in range(6)] for i in range(6)])
    for rep, order in ((b5, 3840), (s7, 5040)):
        assert len(group_closure(rep)) == order
        assert exterior_invariant_dims(rep) == fixed_subspace_dims_bruteforce(rep)


def test_rep_from_json_dict_reads_a_document():
    doc = {"dimension": 2, "generators": [[[0, 1], [1, 0]]]}
    assert LinearRep.from_json_dict(doc) == LinearRep(2, (SWAP2,))
    assert LinearRep.from_json_dict(dict(doc, signs=[-1])) == LinearRep(2, (SWAP2,), (-1,))


@pytest.mark.parametrize("doc,message", [
    ([1], "a representation must be a JSON object"),
    ({"generators": []}, 'representation: missing "dimension"'),
    ({"dimension": 2}, 'representation: missing "generators"'),
    ({"dimension": MAX_DIMENSION + 1, "generators": []},
     'representation: "dimension" must be at most %d' % MAX_DIMENSION),
    # types, shapes and determinants are the constructor's checks
    ({"dimension": "2", "generators": []}, "dimension must be a nonnegative integer"),
    ({"dimension": 2, "generators": [[[1, 1], [1, 1]]]}, "generator has determinant 0, not +-1"),
], ids=["not-an-object", "no-dimension", "no-generators", "above-the-bound", "str-dimension",
        "singular"])
def test_rep_from_json_dict_rejects_a_malformed_document(doc, message):
    with pytest.raises(InputError) as info:
        LinearRep.from_json_dict(doc)
    assert str(info.value) == message
