import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtfloer.errors import TorsionUnsupported
from mtfloer.graded import (
    GradedGroup,
    ShiftReport,
    circles_cohomology,
    odd_spheres_homology,
    torsion_chain,
)

G = GradedGroup.free


# -- strategies --------------------------------------------------------------

torsion_chains = st.sampled_from([(), (2,), (3,), (2, 2), (2, 4), (5,), (2, 6)])
groups = st.dictionaries(
    st.integers(-5, 5), st.tuples(st.integers(0, 3), torsion_chains), max_size=4
).map(GradedGroup.of)
free_groups = st.dictionaries(st.integers(-5, 5), st.integers(0, 3), max_size=4).map(
    GradedGroup.free
)


# -- construction and validation ---------------------------------------------


def test_of_drops_trivial_degrees():
    assert GradedGroup.of({0: (0, []), 3: (1, [])}) == G({3: 1})


def test_entries_must_be_sorted():
    with pytest.raises(ValueError):
        GradedGroup(((1, 1, ()), (0, 1, ())))


def test_rank_must_be_nonnegative():
    with pytest.raises(ValueError):
        GradedGroup.of({0: (-1, [])})


def test_torsion_must_be_a_divisibility_chain():
    with pytest.raises(ValueError):
        GradedGroup.of({0: (0, [4, 2])})
    with pytest.raises(ValueError):
        GradedGroup.of({0: (0, [2, 3])})
    with pytest.raises(ValueError):
        GradedGroup.of({0: (0, [1])})


def test_accessors():
    a = GradedGroup.of({2: (1, []), 0: (0, [2, 4])})
    assert a.rank(2) == 1 and a.rank(0) == 0 and a.rank(7) == 0
    assert a.torsion(0) == (2, 4) and a.torsion(2) == ()
    assert a.degrees() == (0, 2)
    assert not a.is_zero() and not a.is_free()
    assert GradedGroup.zero().is_zero()
    assert a.total_rank() == 1


# -- torsion chain merging ----------------------------------------------------


def test_torsion_chain_examples():
    assert torsion_chain([2, 4]) == (2, 4)
    assert torsion_chain([2, 3]) == (6,)
    assert torsion_chain([4, 6]) == (2, 12)
    assert torsion_chain([]) == ()


@given(st.lists(st.integers(2, 60), max_size=5))
def test_torsion_chain_is_a_chain_with_same_order(coeffs):
    chain = torsion_chain(coeffs)
    for s, t in zip(chain, chain[1:]):
        assert t % s == 0
    product = 1
    for c in coeffs:
        product *= c
    chain_product = 1
    for c in chain:
        chain_product *= c
    assert product == chain_product


# -- direct sum ----------------------------------------------------------------


def test_direct_sum_merges_torsion():
    a = GradedGroup.of({0: (0, [2])})
    b = GradedGroup.of({0: (0, [4])})
    assert a + b == GradedGroup.of({0: (0, [2, 4])})


def test_direct_sum_adds_ranks():
    assert G({0: 1, 2: 2}) + G({0: 3}) == G({0: 4, 2: 2})


@given(groups, groups)
def test_direct_sum_commutative(a, b):
    assert a + b == b + a


@given(groups, groups, groups)
def test_direct_sum_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(groups)
def test_zero_is_identity(a):
    assert a + GradedGroup.zero() == a


# -- tensor ----------------------------------------------------------------------


def test_tensor_examples():
    assert G({2: 1}).tensor(G({0: 2, 1: 2})) == G({2: 2, 3: 2})
    tower = G({0: 1, 1: 1})
    assert tower.tensor(tower) == G({0: 1, 1: 2, 2: 1})


def test_tensor_rejects_torsion():
    with pytest.raises(TorsionUnsupported):
        GradedGroup.of({0: (0, [2])}).tensor(G({0: 1}))


@given(free_groups, free_groups)
def test_tensor_total_rank_multiplicative(a, b):
    assert a.tensor(b).total_rank() == a.total_rank() * b.total_rank()


@given(free_groups, free_groups, free_groups)
def test_tensor_distributes_over_sum(a, b, c):
    assert a.tensor(b + c) == a.tensor(b) + a.tensor(c)


# -- shift and comparison ----------------------------------------------------------


def test_shift():
    assert G({0: 1, 2: 3}).shift(-2) == G({-2: 1, 0: 3})
    assert G({0: 1}).shift(5).shift(-5) == G({0: 1})


@given(groups, st.integers(-4, 4))
def test_compare_up_to_shift_roundtrip(a, s):
    report = a.compare_up_to_shift(a.shift(s))
    expected = ShiftReport(True, 0 if a.is_zero() else s)
    assert report == expected


def test_compare_up_to_shift_negative_cases():
    assert a_vs_b(G({0: 1}), G({0: 2})) == ShiftReport(False)
    assert a_vs_b(G({0: 1, 1: 1}), G({0: 1, 2: 1})) == ShiftReport(False)
    assert a_vs_b(GradedGroup.zero(), G({0: 1})) == ShiftReport(False)
    assert a_vs_b(G({3: 1}), G({-1: 1})) == ShiftReport(True, -4)


def a_vs_b(a, b):
    return a.compare_up_to_shift(b)


def test_euler_characteristic():
    assert G({0: 2, 1: 3, 2: 1}).euler_characteristic() == 0
    assert GradedGroup.of({0: (1, [2, 2])}).euler_characteristic() == 1
    assert G({-1: 1}).euler_characteristic() == -1


# -- model space helpers -------------------------------------------------------------


def test_circles_cohomology():
    assert circles_cohomology(2) == G({0: 2, 1: 2})
    assert circles_cohomology(2, shift=-1) == G({-1: 2, 0: 2})
    assert circles_cohomology(0).is_zero()
    with pytest.raises(ValueError):
        circles_cohomology(-1)


def test_odd_spheres_homology():
    assert odd_spheres_homology(3, 1) == G({0: 3, 1: 3})
    assert odd_spheres_homology(2, 2) == G({0: 2, 3: 2})
    assert odd_spheres_homology(0, 5).is_zero()
    with pytest.raises(ValueError):
        odd_spheres_homology(1, 0)


# -- serialization ----------------------------------------------------------------------


def test_json_roundtrip():
    a = GradedGroup.of({2: (1, []), 0: (2, [2, 4]), -1: (0, [3])})
    blob = json.dumps(a.to_json_dict())
    assert GradedGroup.from_json_dict(json.loads(blob)) == a


def test_json_shape():
    assert G({1: 2}).to_json_dict() == {
        "degrees": [{"degree": 1, "rank": 2, "torsion": []}]
    }
    assert GradedGroup.zero().to_json_dict() == {"degrees": []}


def test_str_forms():
    assert str(GradedGroup.zero()) == "0"
    assert str(G({2: 1})) == "Z_(2)"
    assert str(G({2: 3})) == "Z^3_(2)"
    assert str(GradedGroup.of({0: (1, [2])})) == "Z_(0) + Z/2_(0)"
