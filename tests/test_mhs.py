import json

import pytest

from avor3.mhs import (MAX_CLASSES, CohomologyTable, MhsVector, UnsupportedTwist, graded,
                       remove_weight, weight_counts)

T = MhsVector.tate
F = MhsVector(f_count=1)


def test_vector_normalization_and_dimension():
    v = MhsVector(tates=(3, 1, 1))
    assert v.tates == (1, 1, 3)
    assert v.dimension() == 3
    assert F.dimension() == 2
    assert MhsVector().is_zero()
    assert T(2, mult=3).tates == (2, 2, 2)


def test_addition_is_multiset_union():
    v = T(0) + T(2) + F
    assert v.tates == (0, 2)
    assert v.f_count == 1
    assert (v + v).dimension() == 2 * v.dimension()


def test_weights():
    assert (T(0) + T(3)).weights() == (0, 6)
    assert F.weights() == (0, 6)
    assert weight_counts((1,), 1) == {0: 1, 2: 1, 6: 1}
    assert weight_counts((0, 0, 3), 2) == {0: 4, 6: 3}
    assert weight_counts((), 0) == {}


def test_tate_twist():
    assert T(1).tate_twist(2) == T(3)
    assert F.tate_twist(0) == F
    with pytest.raises(UnsupportedTwist):
        F.tate_twist(1)


def test_remove_weight_prefers_tate_pieces():
    # a weight-0 removal takes the plain Tate class first (Q + F -> F)
    assert remove_weight((0,), 1, 0) == ((), 1)
    # with only the atom left, removal splits it: F -> Q(-3), F -> Q
    assert remove_weight((), 1, 0) == ((3,), 0)
    assert remove_weight((), 1, 6) == ((0,), 0)
    # nothing of the weight: a Tate class of another weight, or a weight F lacks
    assert remove_weight((1,), 0, 0) is None
    assert remove_weight((), 1, 2) is None


def test_remove_weight_of_k_is_k_single_removals():
    # Tate pieces first, then one atom per further dimension, tates kept sorted
    assert remove_weight((0, 1, 3), 2, 6, 2) == ((0, 0, 1), 1)
    assert remove_weight((0, 1, 3), 2, 6, 3) == ((0, 0, 0, 1), 0)
    assert remove_weight((0, 1, 3), 2, 6, 4) is None
    assert remove_weight((0, 0, 2), 1, 0, 3) == ((2, 3), 0)
    assert remove_weight((1, 1, 2), 0, 2, 2) == ((2,), 0)
    assert remove_weight((1, 1, 2), 0, 2, 3) is None
    assert remove_weight((1,), 0, 3) is None
    assert remove_weight((1,), 3, 4, 0) == ((1,), 3)


def test_class_roundtrip_and_str():
    v = T(2) + T(2) + T(0) + F
    classes = v.to_classes()
    assert MhsVector.from_classes(classes) == v
    assert MhsVector.from_classes([{"atom": "F", "mult": 2}]) == MhsVector(f_count=2)
    with pytest.raises(ValueError):
        MhsVector.from_classes([{"atom": "G"}])
    assert str(v) == "Q + Q(-2)^2 + F"
    assert str(MhsVector()) == "0"


def test_table_drops_zero_entries_and_sorts():
    t = CohomologyTable("x", ((4, T(2)), (0, T(0)), (2, MhsVector())))
    assert t.degrees() == (0, 4)
    assert t.entry(2).is_zero()
    with pytest.raises(ValueError):
        CohomologyTable("x", ((0, T(0)), (0, T(1))))


def test_table_operations():
    a = CohomologyTable("a", ((0, T(0)), (2, T(1))))
    b = CohomologyTable("b", ((2, T(1)), (3, T(0))))
    merged = CohomologyTable("m", graded(a.entries + b.entries))
    assert dict(merged.entries) == {0: T(0), 2: T(1) + T(1), 3: T(0)}
    assert merged.euler_characteristic() == 1 + 2 - 1
    assert a.betti(4) == (1, 0, 1, 0, 0)


def test_table_json_roundtrip_is_canonical():
    t = CohomologyTable("demo", ((0, T(0)), (2, T(1) + F)))
    text = json.dumps(t.to_json_dict(), sort_keys=True)
    again = CohomologyTable.from_json_dict(json.loads(text))
    assert again == t
    assert text == json.dumps(again.to_json_dict(), sort_keys=True)



def test_graded_sums_each_key_once_and_drops_zeros():
    v = T(1) + F
    out = graded([(2, T(1)), (0, v), (2, T(0)), (1, MhsVector()), (3, F), (3, MhsVector())])
    assert out == ((0, v), (2, T(0) + T(1)), (3, F))
    assert out[0][1] is v  # a key with one part keeps its vector


def test_entries_hold_at_most_max_classes():
    data = {"label": "x", "entries": [{"degree": 0, "classes": [{"tate": 0,
                                                                  "mult": MAX_CLASSES}]}]}
    assert CohomologyTable.from_json_dict(data).entry(0).dimension() == MAX_CLASSES
    data["entries"].append({"degree": 1, "classes": [{"atom": "F"}]})
    with pytest.raises(ValueError, match=r"^tables\[2\]\.entries\[1\]\.classes\[0\]: "
                                         "more than 10000 classes in all entries$"):
        CohomologyTable.from_json_dict(data, "tables[2]")
    with pytest.raises(ValueError, match=r"^classes\[0\]: more than 10000"):
        MhsVector.from_classes([{"tate": 1, "mult": MAX_CLASSES + 1}])
