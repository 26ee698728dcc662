import random
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from avor3 import fan, linalg, strata
from avor3.fan import (GENERATOR_NAMES, SIGMA6, Cone, EquivalenceResult, OrbitCensus,
                       OrbitClass, SpanDeficient, _line_maps, classify_orbits, equivalent,
                       stabilizer, stratum_character_lattice, torus_coordinates)
from avor3.forms import (GroupElement, SymForm, act_on_form, pairing, primitive, rank1_form,
                         rank1_vector)
from avor3.equivariant import LinearRep, exterior_invariant_dims, order_histogram
from avor3.registry import load_registry
from avor3.verify import random_unimodular


def test_cone_parsing_and_names():
    c = Cone.from_names("b3, a1 ,a2")
    assert c.name() == "a1,a2,b3"
    assert Cone.from_names("0").dim() == 0
    assert Cone.from_names("").name() == "0"
    with pytest.raises(ValueError):
        Cone.from_names("a1,a9")
    with pytest.raises(ValueError):
        Cone.from_names("a1,a1")


def test_cone_rejects_dependent_generators():
    # (x2 - x3)^2 is in the span of x2^2, x3^2 and x2 x3 but the six
    # generators are pairwise independent; a repeated square is not
    q = SIGMA6.generators[0]
    with pytest.raises(ValueError):
        Cone((q, SymForm(4, 0, 0, 0, 0, 0)))  # (2 x1)^2 is a dependent rank-1 form


def test_face_counts_are_binomial():
    for d in range(7):
        assert len(SIGMA6.faces(d)) == comb(6, d)


def test_cusp_and_span_ranks():
    assert Cone.from_names("0").cusp_rank() == 0
    assert Cone.from_names("a1").cusp_rank() == 1
    assert Cone.from_names("a1,a2").cusp_rank() == 2
    assert Cone.from_names("a1,a2,a3").cusp_rank() == 3
    assert Cone.from_names("a1,a2,b3").cusp_rank() == 2
    # the rank of the summed Gram matrix, which for a sum of squares v v^T
    # is also the span rank of the vectors v
    for dim in range(7):
        for face in SIGMA6.faces(dim):
            total = [[sum(q.matrix()[i][j] for q in face.generators) for j in range(3)]
                     for i in range(3)]
            assert face.cusp_rank() == linalg.rank(total)


def test_equivalence_produces_checkable_witness():
    c1 = Cone.from_names("a1,a2,a3")
    c2 = Cone.from_names("a1,b2,b3")
    res = equivalent(c1, c2)
    if res:
        g = res.witness
        assert {act_on_form(g, q) for q in c1.generators} == set(c2.generators)
    # the two dimension-3 orbit representatives are separated by cusp rank
    res = equivalent(Cone.from_names("a1,a2,a3"), Cone.from_names("a1,a2,b3"))
    assert res.verdict == "inequivalent"
    assert not res


def test_equivalence_of_single_rays():
    res = equivalent(Cone.from_names("a1"), Cone.from_names("b2"))
    assert res.verdict == "equivalent"
    g = res.witness
    (a1,), (b2,) = Cone.from_names("a1").generators, Cone.from_names("b2").generators
    assert act_on_form(g, a1) == b2


def test_far_ray_is_equivalent_with_verified_witness():
    # every line map sends e1 to +-(2, 3, 1), so none has entries within [-2, 2]
    q = rank1_form((2, 3, 1))
    res = equivalent(Cone.from_names("a1"), Cone((q,)))
    assert res.verdict == "equivalent"
    assert act_on_form(res.witness, SIGMA6.generators[0]) == q


def _image(g, face):
    return Cone(tuple(act_on_form(g, q) for q in face.generators))


def _assert_found(face, image):
    res = equivalent(face, image)
    assert res.verdict == "equivalent"
    assert {act_on_form(res.witness, q) for q in face.generators} == set(image.generators)


EXPECTED_CENSUS = {
    0: [("0", 1, 0)],
    1: [("a1", 6, 1)],
    2: [("a1,a2", 15, 2)],
    3: [("a1,a2,a3", 16, 3), ("a1,a2,b3", 4, 2)],
    4: [("a1,a2,a3,b1", 12, 3), ("a1,a2,b1,b2", 3, 3)],
    5: [("a1,a2,a3,b1,b2", 6, 3)],
    6: [("a1,a2,a3,b1,b2,b3", 1, 3)],
}


@pytest.mark.parametrize("dim", sorted(EXPECTED_CENSUS))
def test_orbit_census_frozen(dim):
    census = classify_orbits(dim)
    got = [(o.representative.name(), o.size, o.cusp_rank) for o in census.orbits]
    assert got == EXPECTED_CENSUS[dim]
    assert sum(o.size for o in census.orbits) == comb(6, dim)


def _reference_census(dim):
    """The pairwise scan: every face is compared with the class representatives."""
    classes = []  # [representative, member count]
    for face in SIGMA6.faces(dim):
        for cls in classes:
            if equivalent(face, cls[0]):
                cls[1] += 1
                break
        else:
            classes.append([face, 1])
    return OrbitCensus(dim, tuple(OrbitClass(rep, size, rep.cusp_rank())
                                  for rep, size in classes))


@pytest.mark.parametrize("dim", range(7))
def test_orbit_census_matches_the_pairwise_scan(dim):
    # representatives, sizes, cusp ranks and class order
    assert classify_orbits(dim) == _reference_census(dim)


def test_census_rejects_a_stabilizer_element_off_the_generators(monkeypatch):
    stabilizer = fan.stabilizer
    shear = GroupElement(((1, 1, 0), (0, 1, 0), (0, 0, 1)))  # sends a2's line to (1, 1, 0)

    def with_shear(cone):
        stab = stabilizer(cone)
        return stab._replace(elements=stab.elements + (shear,)) if cone == SIGMA6 else stab

    monkeypatch.setattr(fan, "stabilizer", with_shear)
    classify_orbits.cache_clear()
    fan._generator_permutations.cache_clear()
    try:
        with pytest.raises(AssertionError, match="does not permute the generators"):
            classify_orbits(3)
    finally:
        classify_orbits.cache_clear()
        fan._generator_permutations.cache_clear()


def test_a_lone_face_census_runs_no_stabilizer_search(monkeypatch):
    def no_search(cone):
        raise AssertionError("stabilizer searched for %s" % cone.name())

    for cached in (classify_orbits, fan._generator_permutations, stabilizer):
        cached.cache_clear()
    monkeypatch.setattr(fan, "stabilizer", no_search)
    try:
        for dim in (0, 6):
            census = classify_orbits(dim)
            assert [o.size for o in census.orbits] == [1]
            assert census == _reference_census(dim)
    finally:
        classify_orbits.cache_clear()


def test_a_witness_failing_re_verification_raises(monkeypatch):
    monkeypatch.setattr(fan, "_line_maps", lambda source, target: iter([GroupElement.identity()]))
    with pytest.raises(AssertionError, match="witness failed re-verification"):
        equivalent(Cone.from_names("a1"), Cone.from_names("a2"))


def test_a_stabilizer_not_closed_under_inverse_raises(monkeypatch):
    cycle = GroupElement(((0, 0, 1), (1, 0, 0), (0, 1, 0)))  # its inverse is cycle^2
    monkeypatch.setattr(fan, "_line_maps",
                        lambda source, target: iter([GroupElement.identity(), cycle]))
    with pytest.raises(AssertionError, match="stabilizer not closed under inverse"):
        stabilizer.__wrapped__(SIGMA6)


def test_a_stabilizer_moving_the_face_fails_the_lattice_check(monkeypatch):
    # an element of the basic cone's stabilizer that sends some a_i to a b_j
    cone = Cone.from_names("a1,a2,a3")
    kept = set(stabilizer(cone).elements)
    extra = next(g for g in fan._one_per_sign(stabilizer(SIGMA6).elements) if g not in kept)
    monkeypatch.setattr(fan, "stabilizer", lambda c: stabilizer(c)._replace(
        elements=stabilizer(c).elements + (extra,)))
    with pytest.raises(AssertionError, match="does not preserve the character sublattice"):
        stratum_character_lattice.__wrapped__(cone)


@pytest.mark.parametrize("dim", [1, 2])
def test_span_deficient_faces_match_random_images(dim):
    rng = random.Random(dim)
    for face in SIGMA6.faces(dim):
        for _ in range(5):
            _assert_found(face, _image(random_unimodular(rng), face))


_ELEMENTARY = st.tuples(st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j]),
                        st.integers(-3, 3))


@settings(max_examples=20, deadline=None)
@given(st.booleans(), st.lists(_ELEMENTARY, max_size=8))
def test_every_face_matches_its_image(flip, steps):
    g = GroupElement(((-1 if flip else 1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for (i, j), k in steps:
        rows = [[int(r == c) for c in range(3)] for r in range(3)]
        rows[i][j] = k
        g = g * GroupElement(rows)
    for dim in range(7):
        for face in SIGMA6.faces(dim):
            _assert_found(face, _image(g, face))


def _reference_line_maps(source, target):
    """The plain signed-permutation search: every candidate M is formed in full.

    For each signed, ordered r-tuple of target vectors as the images of the
    pivot columns, M = P adj(V) / d is kept when it is integral, unimodular
    and maps the source lines exactly onto the target lines, and yielded as
    the GroupElement u_T^-1 diag(M, I) u_S, multiplied by `linalg.mat_mul`.
    """
    u_s, r, src = source.frame
    u_t, r_t, tgt = target.frame
    if r != r_t or len(src) != len(tgt):
        return
    pivots = [next(c for c, v in enumerate(src) if v[i]) for i in range(r)]
    vmat = [[src[c][i] for c in pivots] for i in range(r)]
    adj = linalg.adjugate(vmat)
    d = linalg.det(vmat)
    tset = {linalg.lead_positive(t) for t in tgt}
    u_t_inv = u_t.inverse().rows
    for picks in permutations(tgt, r):
        for signs in product((1, -1), repeat=r):
            num = [[sum(signs[c] * picks[c][i] * adj[c][j] for c in range(r))
                    for j in range(r)] for i in range(r)]
            if any(x % d for row in num for x in row):
                continue
            m = [[x // d for x in row] for row in num]
            if abs(linalg.det(m)) != 1:
                continue
            images = {linalg.lead_positive([sum(row[k] * s[k] for k in range(r))
                                            for row in m])
                      for s in src}
            if images != tset:
                continue
            block = [[(m[i][j] if i < r and j < r else int(i == j)) for j in range(3)]
                     for i in range(3)]
            yield GroupElement(linalg.mat_mul(u_t_inv, linalg.mat_mul(block, u_s.rows)))


def _assert_same_maps(c1, c2):
    # compared with multiplicity: the search yields each map once; its first
    # map, the witness of `equivalent`, is also the reference's first
    maps = list(_line_maps(c1, c2))
    reference = list(_reference_line_maps(c1, c2))
    assert maps[:1] == reference[:1]
    got = sorted(maps)
    assert got == sorted(reference)
    return got


@pytest.mark.parametrize("dim", range(1, 7))
def test_line_maps_match_reference_on_face_pairs(dim):
    faces = SIGMA6.faces(dim)
    for c1 in faces:
        for c2 in faces:
            _assert_same_maps(c1, c2)


@settings(max_examples=10, deadline=None)
@given(st.lists(_ELEMENTARY, min_size=1, max_size=8), st.data())
def test_line_maps_match_reference_on_images(steps, data):
    g = GroupElement.identity()
    for (i, j), k in steps:
        rows = [[int(r == c) for c in range(3)] for r in range(3)]
        rows[i][j] = k
        g = g * GroupElement(rows)
    for dim in range(1, 7):
        face = data.draw(st.sampled_from(SIGMA6.faces(dim)))
        assert _assert_same_maps(face, _image(g, face))


def _cone_of_lines(*vectors):
    return Cone(tuple(rank1_form(v) for v in vectors))


# generator vectors of index 2 or 4 in their saturated span, so the pivot
# basis has d = +-2 or +-4; every face of the basic cone has d = +-1
NON_UNIMODULAR_CONES = {
    "index-two": _cone_of_lines((1, 1, 0), (1, -1, 0), (0, 0, 1)),
    "index-two-rank-two": _cone_of_lines((1, 1, 0), (1, -1, 0)),
    "index-two-with-axis": _cone_of_lines((1, 1, 0), (1, -1, 0), (1, 0, 0)),
    "index-four": _cone_of_lines((1, -2, 0), (1, 2, 0), (2, 1, -1)),
}


@pytest.mark.parametrize("name", sorted(NON_UNIMODULAR_CONES))
def test_line_maps_match_reference_on_non_unimodular_cones(name):
    cone = NON_UNIMODULAR_CONES[name]
    _, r, src = cone.frame
    pivots = [next(c for c, v in enumerate(src) if v[i]) for i in range(r)]
    assert abs(linalg.det([[src[c][i] for c in pivots] for i in range(r)])) in (2, 4)
    assert _assert_same_maps(cone, cone)
    rng = random.Random(name)
    for _ in range(5):
        assert _assert_same_maps(cone, _image(random_unimodular(rng), cone))


def test_span_frame_moves_each_span_onto_its_first_coordinates():
    rng = random.Random(126)
    cones = list(NON_UNIMODULAR_CONES.values())
    for face in (f for dim in range(1, 7) for f in SIGMA6.faces(dim)):
        cones += [face] + [_image(random_unimodular(rng), face) for _ in range(5)]
    for cone in cones:
        # the frame's input: each generator's primitive vector, lead-positive
        vectors = [rank1_vector(q) for q in cone.generators]
        assert all(v == primitive(v) and rank1_form(v) == q
                   for v, q in zip(vectors, cone.generators))
        u, r, coords = cone.frame
        assert r == cone.cusp_rank() == linalg.rank(vectors)
        assert len(coords) == len(vectors)
        for v, x in zip(vectors, coords):
            image = linalg.mat_vec(u.rows, v)
            assert tuple(image[:r]) == x and not any(image[r:])
    # the empty cone frames too, as 3 empty rows
    assert Cone(()).frame == (GroupElement.identity(), 0, ())


def test_each_search_frames_its_cones_once(monkeypatch):
    calls = []
    hermite_form = linalg.hermite_form
    monkeypatch.setattr(linalg, "hermite_form", lambda a: calls.append(a) or hermite_form(a))
    cone, other = Cone.from_names("a1,a2,a3,b1"), Cone.from_names("a1,a2,a3,b2")
    stabilizer.__wrapped__(cone)
    assert len(calls) == 1  # as both source and target
    assert equivalent(cone, other) and equivalent(other, cone)
    assert len(calls) == 2  # only `other` was not framed yet
    assert cone.cusp_rank() == other.cusp_rank() == 3 and len(calls) == 2


def test_torus_coordinates_run_one_hermite_form(monkeypatch):
    # the generator matrix is a constant, so its inverse is computed once
    calls = []
    hermite_form = linalg.hermite_form
    monkeypatch.setattr(linalg, "hermite_form", lambda a: calls.append(a) or hermite_form(a))
    torus_coordinates.cache_clear()
    assert torus_coordinates() is torus_coordinates() is torus_coordinates()
    assert len(calls) == 1


def test_integrality_rejects_line_permutations():
    # the full search sees all 48 signed permutations of the three lines, and
    # every one that moves the line of (0,0,1) is rational but not integral:
    # (1,1,0) -> (1,1,0), (1,-1,0) -> (0,0,1) sends e1 = ((1,1,0) + (1,-1,0)) / 2
    # to ((1,1,0) + (0,0,1)) / 2
    cone = NON_UNIMODULAR_CONES["index-two"]
    stab = stabilizer(cone)
    assert len(stab.elements) == 16
    for g in stab.elements:
        assert [row[2] for row in g.rows] in ([0, 0, 1], [0, 0, -1])
        assert {act_on_form(g, q) for q in cone.generators} == set(cone.generators)
    # here some non-integral M rounds down to an integral, unimodular map of
    # the lines that another candidate already gives, so without the
    # integrality test the search would yield elements twice
    stab = stabilizer(NON_UNIMODULAR_CONES["index-four"])
    assert len(stab.elements) == len(set(stab.elements)) == 8


EXPECTED_STABILIZERS = {
    "a1,a2,a3": (48, 3, 24),
    "a1,a2,a3,b1": (24, 2, 12),
    "a1,a2,b1,b2": (48, 2, 6),
    "a1,a2,a3,b1,b2": (16, 1, 2),
    "a1,a2,a3,b1,b2,b3": (48, 0, 1),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_STABILIZERS))
def test_stabilizer_orders_frozen(name):
    cone = Cone.from_names(name)
    order, lat_dim, eff = EXPECTED_STABILIZERS[name]
    stab = stabilizer(cone)
    assert len(stab.elements) == order
    lattice = stratum_character_lattice(cone)
    assert len(lattice.basis) == lat_dim
    assert len(lattice.effective) == eff


def test_stabilizer_elements_fix_the_cone():
    cone = Cone.from_names("a1,a2,a3,b1")
    for g in stabilizer(cone).elements:
        assert {act_on_form(g, q) for q in cone.generators} == set(cone.generators)


def test_stabilizer_needs_full_span():
    with pytest.raises(SpanDeficient):
        stabilizer(Cone.from_names("a1,a2,b3"))


def test_effective_histograms_frozen():
    hist4a = order_histogram(stratum_character_lattice(
        Cone.from_names("a1,a2,a3,b1")).effective)
    assert hist4a == {1: 1, 2: 7, 3: 2, 6: 2}
    hist4b = order_histogram(stratum_character_lattice(
        Cone.from_names("a1,a2,b1,b2")).effective)
    assert hist4b == {1: 1, 2: 3, 3: 2}


def test_character_lattice_basis_for_triple_of_squares():
    lattice = stratum_character_lattice(Cone.from_names("a1,a2,a3"))
    exps = set(lattice.basis)
    assert exps == {(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)}
    # lattice characters vanish on the cone generators
    for ch in lattice.basis:
        for q in Cone.from_names("a1,a2,a3").generators:
            assert pairing(q, ch) == 0


def test_torus_coordinates_are_dual_basis():
    coords = torus_coordinates()
    expected = (
        (1, 0, 0, 0, 1, 1),
        (0, 1, 0, 1, 0, 1),
        (0, 0, 1, 1, 1, 0),
        (0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, -1),
    )
    assert coords == expected
    for i, q in enumerate(SIGMA6.generators):
        for j, ch in enumerate(coords):
            assert pairing(q, ch) == int(i == j)


_CUSP_RANK_THREE_FACES = [face for dim in range(3, 7) for face in SIGMA6.faces(dim)
                          if face.cusp_rank() == 3]


def _lattice_invariants(lattice):
    rep = LinearRep(len(lattice.basis), lattice.effective)
    return (len(lattice.effective), order_histogram(lattice.effective),
            exterior_invariant_dims(rep))


def test_cusp_rank_three_faces_are_counted():
    assert len(_CUSP_RANK_THREE_FACES) == 38


@pytest.mark.parametrize("face", _CUSP_RANK_THREE_FACES, ids=Cone.name)
def test_character_lattice_on_the_dual_basis(face):
    lattice = stratum_character_lattice(face)
    for ch in lattice.basis:
        assert all(pairing(q, ch) == 0 for q in face.generators)
    # together with the dual characters of the cone's generators, the basis
    # is a Z-basis of all characters
    duals = [f for q, f in zip(SIGMA6.generators, torus_coordinates()) if q in face.generators]
    assert abs(linalg.det(list(lattice.basis) + duals)) == 1
    d = len(lattice.basis)
    effective = set(lattice.effective)
    assert tuple(map(tuple, linalg.identity(d))) in effective
    for a in effective:
        for b in effective:
            assert tuple(map(tuple, linalg.mat_mul(a, b))) in effective
    # the orbit's census representative acts the same way up to conjugacy
    rep = next(o.representative for o in classify_orbits(face.dim()).orbits
               if o.cusp_rank == 3 and equivalent(face, o.representative))
    assert _lattice_invariants(lattice) == _lattice_invariants(
        stratum_character_lattice(rep))


def test_character_lattice_needs_a_face_of_the_basic_cone():
    # spans R^3, so its stabilizer is finite, but its generators are not
    # among a1..b3 and the dual basis says nothing about its characters
    cone = NON_UNIMODULAR_CONES["index-two"]
    assert cone.cusp_rank() == 3
    with pytest.raises(ValueError, match="not a face of the basic cone"):
        stratum_character_lattice(cone)


_FAN_CACHES = (fan._generator_permutations, fan.classify_orbits, fan.stabilizer,
               fan.stratum_character_lattice, fan.torus_coordinates)


def _basis_free_results():
    """The census (representative names, orbit sizes and cusp ranks) of each
    dimension, the stabilizer orders of its cusp-rank-3 classes, the rank-3
    locus and the Betti vector: what a change of basis of Z^3 must keep."""
    census = [[(o.representative.name(), o.size, o.cusp_rank) for o in
               classify_orbits(dim).orbits] for dim in range(SIGMA6.dim() + 1)]
    orders = [len(stabilizer(o.representative).elements) for dim in range(SIGMA6.dim() + 1)
              for o in classify_orbits(dim).orbits if o.cusp_rank == 3]
    betti = strata.compactification_betti(load_registry()).betti
    return census, orders, strata.rank_three_locus(), betti


def test_the_pipeline_reads_the_basic_cone_only_through_sigma6(monkeypatch):
    # a GL(3,Z) image of the basic cone, its generators keeping their names,
    # gives the same census, stabilizers, strata and Betti vector; a reader
    # that took the generators from anywhere but fan.SIGMA6 would mix the two
    # bases, and fail or change a result
    before = _basis_free_results()
    g = GroupElement(((2, 1, 3), (1, 1, 2), (0, 1, 2)))
    image = Cone(tuple(act_on_form(g, q) for q in SIGMA6.generators))
    # no generator keeps its form, so no name may be read in the old basis
    assert all(q != p for q, p in zip(image.generators, SIGMA6.generators))
    for cache in _FAN_CACHES:
        cache.cache_clear()
    monkeypatch.setattr(fan, "SIGMA6", image)
    try:
        assert _basis_free_results() == before
        assert Cone.from_names("a1,b3").generators == image.generators[::5]
    finally:
        monkeypatch.undo()
        for cache in _FAN_CACHES:
            cache.cache_clear()
