import json
import re

import pytest
from hypothesis import given, strategies as st

from avor3 import Avor3Error
from avor3.mhs import (MAX_CLASSES, CohomologyTable, Graded, MhsVector, UnsupportedTwist,
                       disjoint_union, entries_to_json, from_weight_counts, graded,
                       weight_counts, weight_graded_euler)
from avor3.ssengine import SSPage, _cancel

T = MhsVector.tate
F = MhsVector(f_count=1)
V = MhsVector


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
    # F has one dimension of each of its weights 0 and 6, like Q + Q(-3)
    assert weight_counts(T(0) + T(3)) == weight_counts(F) == {0: 1, 6: 1}
    assert weight_counts(V((1,), 1)) == {0: 1, 2: 1, 6: 1}
    assert weight_counts(V((0, 0, 3), 2)) == {0: 4, 6: 3}
    assert weight_counts(V((), 0)) == {}


def test_tate_twist():
    assert T(1).tate_twist(2) == T(3)
    assert F.tate_twist(0) == F
    with pytest.raises(UnsupportedTwist):
        F.tate_twist(1)


def _cancelled(v, w, k=1):
    """The weight counts of `v` less k of weight w, by `_cancel` as `resolve`
    cancels them: None when they run out."""
    return _cancel({w: 0, **weight_counts(v)}, ((w, k),))


def test_cancels_take_tate_pieces_before_f_atoms():
    # a weight-0 cancel takes the plain Tate class first (Q + F -> F)
    assert from_weight_counts(_cancelled(V((0,), 1), 0), 1) == V((), 1)
    # with only the atom left, a cancel splits it: F -> Q(-3), F -> Q
    assert from_weight_counts(_cancelled(V((), 1), 0), 1) == V((3,), 0)
    assert from_weight_counts(_cancelled(V((), 1), 6), 1) == V((0,), 0)
    # nothing of the weight: a Tate class of another weight, or a weight F lacks
    assert _cancelled(V((1,), 0), 0) is None
    assert _cancelled(V((), 1), 2) is None


def test_a_cancel_of_k_is_k_single_cancels():
    # Tate pieces first, then one atom per further dimension, tates kept sorted
    assert from_weight_counts(_cancelled(V((0, 1, 3), 2), 6, 2), 2) == V((0, 0, 1), 1)
    assert from_weight_counts(_cancelled(V((0, 1, 3), 2), 6, 3), 2) == V((0, 0, 0, 1), 0)
    assert _cancelled(V((0, 1, 3), 2), 6, 4) is None
    assert from_weight_counts(_cancelled(V((0, 0, 2), 1), 0, 3), 1) == V((2, 3), 0)
    assert from_weight_counts(_cancelled(V((1, 1, 2), 0), 2, 2), 0) == V((2,), 0)
    assert _cancelled(V((1, 1, 2), 0), 2, 3) is None
    assert _cancelled(V((1,), 0), 3) is None
    assert from_weight_counts(_cancelled(V((1,), 3), 4, 0), 3) == V((1,), 3)
    # the counts left, as `_cancel` leaves them: a weight run out stays at 0
    assert _cancelled(V((0, 0, 2), 1), 0, 3) == {0: 0, 4: 1, 6: 1}


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
    # vectors at one degree are summed
    assert CohomologyTable("x", ((0, T(0)), (0, T(1)))).entries == ((0, T(0) + T(1)),)


def test_table_operations():
    a = CohomologyTable("a", ((0, T(0)), (2, T(1))))
    b = CohomologyTable("b", ((2, T(1)), (3, T(0))))
    merged = CohomologyTable("m", graded(a.entries + b.entries))
    assert dict(merged.entries) == {0: T(0), 2: T(1) + T(1), 3: T(0)}
    # e_0 = 1 - 1 cancels, so only weight 2 is left; the sum is 1 + 2 - 1
    assert weight_graded_euler(merged.entries) == {2: 2}
    assert a.betti(4) == (1, 0, 1, 0, 0)


@pytest.mark.parametrize("degree", [-1, 3])
def test_betti_refuses_a_class_outside_its_degrees(degree):
    table = CohomologyTable("x", ((0, T(0)), (degree, T(1))))
    with pytest.raises(Avor3Error, match=r"^table 'x' has classes in degree %d, outside 0\.\.2$"
                       % degree):
        table.betti(2)


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


# zero vectors included: no Tate piece and no atom
_VECTORS = st.builds(MhsVector, st.lists(st.integers(0, 3), max_size=3), st.integers(0, 2))
_NONZERO = _VECTORS.filter(lambda v: not v.is_zero())
_POSITIONS = st.tuples(st.integers(0, 3), st.integers(0, 3))


@given(st.lists(st.tuples(st.integers(0, 4), _VECTORS), max_size=12))
def test_graded_is_the_plain_sum_by_key(pairs):
    sums = {}
    for key, v in pairs:
        sums[key] = sums.get(key, MhsVector()) + v
    assert graded(pairs) == tuple(sorted((key, v) for key, v in sums.items()
                                         if not v.is_zero()))


@given(st.lists(st.tuples(st.integers(0, 4), _VECTORS), max_size=12),
       st.lists(st.tuples(_POSITIONS, _VECTORS), max_size=12))
def test_constructors_normalise_their_entries_with_graded(degrees, positions):
    for make in (list, tuple):
        assert CohomologyTable("x", make(degrees)).entries == graded(degrees)
        assert SSPage(1, make(positions)).entries == graded(positions)


@given(st.lists(st.tuples(_POSITIONS, _VECTORS), max_size=12))
def test_graded_entries_pass_through_graded_and_the_constructors(pairs):
    entries = graded(pairs)
    assert type(entries) is Graded
    assert graded(entries) is entries
    page = SSPage(1, entries)
    assert page.entries is entries
    assert page._replace(r=2).entries is entries
    table = CohomologyTable("x", graded((p + q, v) for (p, q), v in pairs))
    assert CohomologyTable("y", table.entries).entries is table.entries


@given(st.lists(st.tuples(_POSITIONS, _VECTORS), max_size=12))
def test_weight_graded_euler_refines_the_euler_characteristic(pairs):
    # a page keyed by (p, q) and the table of its total degrees p + q
    page = graded(pairs)
    table = graded((p + q, v) for (p, q), v in pairs)
    chi = sum((-1) ** (p + q) * v.dimension() for (p, q), v in page)
    assert weight_graded_euler(page) == weight_graded_euler(table)
    assert sum(weight_graded_euler(page).values()) == chi
    assert all(weight_graded_euler(page).values())
    assert list(weight_graded_euler(page)) == sorted(weight_graded_euler(page))


@given(st.lists(st.tuples(_POSITIONS, _VECTORS), max_size=12))
def test_a_graded_is_its_plain_tuple(pairs):
    entries = graded(pairs)
    plain = tuple(entries)
    assert type(plain) is tuple
    assert entries == plain and plain == entries and not entries != plain
    assert hash(entries) == hash(plain)
    assert repr(entries) == repr(plain) and str(entries) == str(plain)
    assert json.dumps(entries) == json.dumps(plain)
    assert {plain: 1}[entries] == 1


def test_a_plain_tuple_with_a_repeated_key_or_a_zero_vector_is_normalised():
    # a tuple made elsewhere is normalised, however it looks
    degrees = ((2, T(1)), (0, T(0)), (2, T(0)), (3, MhsVector()))
    assert CohomologyTable("x", degrees).entries == ((0, T(0)), (2, T(0) + T(1)))
    positions = (((0, 1), T(1)), ((0, 1), F), ((1, 0), MhsVector()))
    assert SSPage(1, positions).entries == (((0, 1), T(1) + F),)
    assert type(SSPage(1, positions).entries) is Graded


@given(st.dictionaries(_POSITIONS, _NONZERO, max_size=8), st.data())
def test_disjoint_union_of_graded_pieces_is_graded_of_their_pairs(entries, data):
    # each key goes to one of up to four pieces, and the pieces come in any order
    where = {pq: data.draw(st.integers(0, 3)) for pq in entries}
    pieces = [graded([(pq, v) for pq, v in entries.items() if where[pq] == i])
              for i in range(4)]
    pieces = data.draw(st.permutations(pieces))
    union = disjoint_union(pieces)
    assert type(union) is Graded
    assert union == graded(pair for piece in pieces for pair in piece)
    assert all(v is entries[pq] for pq, v in union)  # nothing summed


@given(st.dictionaries(_POSITIONS, _NONZERO, min_size=1, max_size=6), st.data())
def test_disjoint_union_rejects_a_shared_key_and_a_piece_not_graded(entries, data):
    shared = data.draw(st.sampled_from(sorted(entries)))
    other = graded([(shared, data.draw(_NONZERO))])
    with pytest.raises(ValueError, match="^pieces share a key$"):
        disjoint_union([graded(entries.items()), other])
    with pytest.raises(ValueError, match="^pieces share a key$"):
        disjoint_union([other, graded(entries.items())])
    for plain in (tuple(graded(entries.items())), list(graded(entries.items()))):
        with pytest.raises(TypeError, match="^disjoint_union joins Graded entries, not "):
            disjoint_union([graded([]), plain])


def _key(pq, kind):
    """A page's key ("position") or a table's ("degree") for the position
    `pq`; the degree 4p + q orders the keys as the positions."""
    return pq if kind == "position" else 4 * pq[0] + pq[1]


def _read_entries(items, kind):
    """The entries read back from a page or table document holding the
    ((p, q), MhsVector) `items`, keyed by `kind`."""
    document = {"label": "x",
                "entries": entries_to_json([(_key(pq, kind), v) for pq, v in items], kind)}
    read = SSPage.from_json_dict if kind == "position" else CohomologyTable.from_json_dict
    return read(document).entries


@given(st.dictionaries(_POSITIONS, _NONZERO, min_size=1, max_size=6), st.data())
def test_json_reader_names_the_first_repeated_key(entries, data):
    # one draw, read as a page and as a table
    repeated = data.draw(st.sets(st.sampled_from(sorted(entries)), min_size=1))
    zeros = [(pq, MhsVector()) for pq in data.draw(st.lists(_POSITIONS, max_size=3))]
    items = data.draw(st.permutations(list(entries.items()) + zeros))
    again = data.draw(st.permutations(items + [(pq, data.draw(_NONZERO)) for pq in repeated]))
    for kind in ("position", "degree"):
        # a zero vector never counts as a repeat
        assert _read_entries(items, kind) == tuple(
            (_key(pq, kind), v) for pq, v in sorted(entries.items()))
        key = str(_key(min(repeated), kind)).replace(" ", "")
        with pytest.raises(ValueError, match=r"^repeated %s %s$" % (kind, re.escape(key))):
            _read_entries(again, kind)


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
