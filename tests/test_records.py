"""The record contract: every record is an immutable namedtuple whose equality,
hash, ordering and repr are those of the tuple of its fields, and the
records that check or normalise their fields do so on every copy."""

import pytest

from avor3 import Checked, equivariant, fan, forms, linalg, mhs, registry, ssengine, strata
from avor3.equivariant import LinearRep
from avor3.fan import (SIGMA6, Cone, classify_orbits, equivalent, stabilizer,
                       stratum_character_lattice)
from avor3.forms import GroupElement, SymForm, act_on_form, dual_action_on_characters, rank1_vector
from avor3.mhs import CohomologyTable, MhsVector
from avor3.ssengine import DifferentialDecision, KnownDifferential, SSPage

T = MhsVector.tate
CHECKED = ("Cone", "GroupElement", "MhsVector", "CohomologyTable", "SSPage",
           "KnownDifferential", "LinearRep")


def _record_classes():
    modules = (forms, fan, mhs, ssengine, strata, registry, equivariant)
    return {name: obj for m in modules for name, obj in vars(m).items()
            if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
            and obj.__module__ == m.__name__}


# the locus results of rank 3, 2 and 1; that of the open part is a RegisteredTable
STRATA = ("beta3", "beta2", "beta1")


def _instances():
    reg = registry.load_registry()
    result = strata.compactification_betti(reg)
    cone = Cone.from_names("a1,a2,a3")
    candidate = result.report.candidates[0]
    found = [SIGMA6.generators[0], GroupElement.identity(), cone, equivalent(cone, cone),
             classify_orbits(3).orbits[0], classify_orbits(3), stabilizer(cone),
             stratum_character_lattice(cone), T(1), result.table, result.page,
             reg.known("cstar_bundle_d2"), candidate.decisions[0], candidate, result.report,
             result.loci["beta3"].contributions[0], *map(result.loci.get, STRATA), result,
             reg.table("a3_open"), reg, strata.product_symmetry_rep()]
    return {type(x).__name__: x for x in found}


INSTANCES = _instances()


def test_every_record_class_is_covered():
    assert len(INSTANCES) == 23
    assert set(INSTANCES) == set(_record_classes())
    assert {n for n, c in _record_classes().items() if issubclass(c, Checked)} == set(CHECKED)
    assert set(REJECTED) == set(CHECKED) - {"CohomologyTable"}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_equal_records_have_equal_hashes(name):
    x = INSTANCES[name]
    twin = type(x)(*x)
    assert twin == x and twin is not x
    if any(isinstance(f, dict) for f in x):  # as for the frozen classes before
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(twin) == hash(x)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_record_fields_cannot_be_assigned(name):
    x = INSTANCES[name]
    for field in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
    assert tuple(getattr(x, f) for f in x._fields) == tuple(x)


def test_reprs_are_unchanged():
    assert repr(SymForm(1)) == "SymForm(a11=1, a22=0, a33=0, a23=0, a13=0, a12=0)"
    assert repr(GroupElement.identity()) == "GroupElement(rows=((1, 0, 0), (0, 1, 0), (0, 0, 1)))"
    assert repr(MhsVector((3, 0), 1)) == "MhsVector(tates=(0, 3), f_count=1)"
    assert repr(KnownDifferential(2, 2, 2, 1, "Getzler")) == (
        "KnownDifferential(r=2, p=2, q=2, rank=1, citation='Getzler')")
    assert repr(DifferentialDecision(1, 2, 3, 1, "solver")) == (
        "DifferentialDecision(r=1, p=2, q=3, rank=1, kind='solver', citation='')")
    assert repr(SSPage(1, [((0, 1), T(0))], label="x")) == (
        "SSPage(r=1, entries=(((0, 1), MhsVector(tates=(0,), f_count=0)),), knowns=(), "
        "abutment_smooth_proper=False, label='x')")
    assert repr(LinearRep(2, [[[0, 1], [1, 0]]], [-1])) == (
        "LinearRep(dimension=2, generators=(((0, 1), (1, 0)),), signs=(-1,))")
    assert repr(classify_orbits(1)) == (
        "OrbitCensus(dimension=1, orbits=(OrbitClass(representative=Cone(generators=("
        "SymForm(a11=1, a22=0, a33=0, a23=0, a13=0, a12=0),)), size=6, cusp_rank=1),))")


def test_forms_and_vectors_order_by_their_fields():
    forms_ = [SymForm(0, 1), SymForm(1), SymForm(0, 0, 2), SymForm(-1, 5)]
    assert sorted(forms_) == [SymForm(-1, 5), SymForm(0, 0, 2), SymForm(0, 1), SymForm(1)]
    vectors = [T(2), T(1, 2), MhsVector((), 1), T(0)]
    assert sorted(vectors) == [MhsVector((), 1), T(0), T(1, 2), T(2)]


# a change to each checked record that its constructor rejects; the
# CohomologyTable constructor only normalises (see the next test)
REJECTED = {
    "Cone": dict(generators=SIGMA6.generators[:1] * 2),
    "GroupElement": dict(rows=((2, 0, 0), (0, 1, 0), (0, 0, 1))),
    "MhsVector": dict(f_count=-1),
    "SSPage": dict(knowns=(KnownDifferential(0, 0, 0, 1, "x"),)),
    "KnownDifferential": dict(rank=-1),
    "LinearRep": dict(signs=(2,)),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_copies_of_checked_records_go_through_the_constructor(name):
    x = INSTANCES[name]
    changed = tuple(REJECTED[name].get(f, getattr(x, f)) for f in x._fields)
    with pytest.raises(ValueError):
        x._replace(**REJECTED[name])
    with pytest.raises(ValueError):
        type(x)._make(changed)


def test_copies_are_normalised_like_new_records():
    table = CohomologyTable("t")._replace(entries=[(2, T(1)), (0, T(0)), (2, T(3))])
    assert table.entries == ((0, T(0)), (2, T(1) + T(3)))
    page = SSPage(1, label="main", abutment_smooth_proper=True)
    # as `verify` copies the main page with purity off
    loose = page._replace(entries=[((1, 0), T(1)), ((0, 0), T(0))],
                          abutment_smooth_proper=False)
    assert loose == SSPage(1, [((0, 0), T(0)), ((1, 0), T(1))], (), False, "main")
    assert MhsVector()._replace(tates=(3, 1)).tates == (1, 3)
    cone = Cone.from_names("a1")._replace(generators=Cone.from_names("b1").generators)
    assert rank1_vector(cone.generators[0]) == (0, 1, -1)
    u, r, coords = cone.frame  # the frame of b1's vector, not a1's
    assert linalg.mat_vec(u.rows, (0, 1, -1)) == [1, 0, 0] and (r, coords) == (1, ((1,),))
    rep = LinearRep(1, [[[1]]])._replace(generators=[[[-1]]])
    assert rep.generators == (((-1,),),) and equivariant.exterior_invariant_dims(rep) == (1, 0)


def test_a_record_equals_the_plain_tuple_of_its_fields():
    # the one new behaviour of tuple records; characters are plain 6-tuples
    # and forms are SymForms, and no code puts the two in one set, dict or
    # comparison
    assert SymForm(1) == (1, 0, 0, 0, 0, 0)
    g = GroupElement(((0, 1, 0), (1, 0, 0), (0, 0, -1)))
    assert type(act_on_form(g, SymForm(1))) is SymForm
    chars = fan.torus_coordinates()
    basis = stratum_character_lattice(Cone.from_names("a1,a2,a3")).basis
    assert all(type(c) is tuple for c in chars + dual_action_on_characters(g, chars) + basis)
