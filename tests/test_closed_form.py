from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtfloer.closed_form import (
    corollary_answer,
    degree_shift,
    degree_shift_argmax,
    fraction_json,
    surface_complement_cohomology,
    surface_rel_cohomology,
    theorem_answer,
    x_homology_formula,
)
from mtfloer.errors import BadGenus, BadParams, ZeroTwist
from mtfloer.graded import GradedGroup
from mtfloer.params import Params

G = GradedGroup.free


# -- parameters -----------------------------------------------------------------


def test_params_validation():
    with pytest.raises(BadGenus):
        Params(1, 1, 1)
    with pytest.raises(ZeroTwist):
        Params(3, 0, 1)
    with pytest.raises(BadParams):
        Params(3, 1, 0)
    # |k| >= g is a valid input whose group vanishes
    assert Params(3, 1, 3).d == -1


def test_params_properties():
    params = Params(4, -2, -1)
    assert params.k == -1 and params.abs_k == 1 and params.abs_n == 2
    assert params.d == 2
    assert params.eps_n == -1
    assert Params(4, 2, 1).eps_n == 0


def test_adjunction_predicate():
    assert Params(3, 1, 3).vanishes_by_adjunction
    assert Params(3, 1, -5).vanishes_by_adjunction
    assert not Params(3, 1, 2).vanishes_by_adjunction
    assert not Params(3, 1, -2).vanishes_by_adjunction


# -- the main formula -------------------------------------------------------------


def test_theorem_frozen_values():
    assert theorem_answer(2, 1, 1) == G({2: 1})
    assert theorem_answer(3, 2, 1) == G({3: 3, 2: 7})
    assert theorem_answer(3, -2, 1) == G({2: 7, 1: 3})
    assert theorem_answer(4, 2, 1) == G({4: 3, 3: 20, 2: 35, 1: 3})


def test_theorem_vanishes_past_the_genus_bound():
    assert theorem_answer(3, 2, 3).is_zero()
    assert theorem_answer(3, 2, -4).is_zero()
    with pytest.raises(BadParams):
        theorem_answer(3, 2, 0)
    with pytest.raises(BadParams):
        theorem_answer(3, 0, 1)


def test_theorem_conjugation_symmetry():
    for g in (2, 3, 4):
        for n in (1, -1, 2, -3):
            for k in range(1, g):
                assert theorem_answer(g, n, k) == theorem_answer(g, n, -k), (g, n, k)


def test_top_spin_c_level_has_rank_one():
    for g in (2, 3, 4, 5):
        for n in (1, -2, 3):
            assert theorem_answer(g, n, g - 1) == G({g: 1}), (g, n)


def test_rank_grows_linearly_in_the_twist():
    base = theorem_answer(3, 1, 1).total_rank()
    assert base == 8
    for n in range(1, 6):
        assert theorem_answer(3, n, 1).total_rank() == base + 2 * (n - 1)
        assert theorem_answer(3, -n, 1).total_rank() == base + 2 * (n - 1)


# -- the k = g-2 consequence ---------------------------------------------------------


def test_corollary_values():
    assert corollary_answer(3, 2) == G({3: 3, 2: 7})
    assert corollary_answer(4, 1) == G({4: 2, 3: 8})
    assert corollary_answer(3, -2) == G({2: 7, 1: 3})
    with pytest.raises(BadParams):
        corollary_answer(2, 1)
    with pytest.raises(BadParams):
        corollary_answer(3, 0)


def test_corollary_agrees_with_theorem():
    for g in (3, 4, 5):
        for n in (1, 2, -1, -3):
            assert corollary_answer(g, n) == theorem_answer(g, n, g - 2), (g, n)


@pytest.mark.parametrize("g", [30, 40])
@pytest.mark.parametrize("n", [3, -3])
def test_theorem_at_large_genus(g, n):
    # chi is the Lefschetz number of the identity on Sym^(g-1-k) of the
    # surface; no chain-level route reaches these genera
    for k in (1, 5, g - 2):
        chi = theorem_answer(g, n, k).euler_characteristic()
        assert chi == (-1) ** (k + 1) * comb(2 * g - 2, g - 1 - k), (g, n, k)
    assert theorem_answer(g, n, g - 2) == corollary_answer(g, n)


def test_relative_cohomology_reference():
    assert surface_rel_cohomology(3, 2) == G({2: 3, 1: 7})
    assert surface_rel_cohomology(3, 2).shift(1) == corollary_answer(3, 2)
    with pytest.raises(BadParams):
        surface_rel_cohomology(1, 1)
    with pytest.raises(BadParams):
        surface_rel_cohomology(3, 0)


def test_complement_cohomology_reference():
    assert surface_complement_cohomology(2, 1) == G({0: 2, 1: 4})
    assert surface_complement_cohomology(3, 2) == G({0: 3, 1: 7})
    report = surface_complement_cohomology(3, 2).compare_up_to_shift(
        theorem_answer(3, -2, 1)
    )
    assert report.equal and report.shift == 1
    with pytest.raises(BadParams):
        surface_complement_cohomology(3, -1)


# -- the page-one homology formula ------------------------------------------------------


def test_x_homology_formula_values():
    assert x_homology_formula(2, 1) == G({2: 1, 1: 3})
    assert x_homology_formula(2, 1, left=True) == G({1: 3, 0: 1})
    assert x_homology_formula(3, 1) == G({3: 1, 2: 5})
    assert x_homology_formula(2, 0) == G({2: 1})


def test_x_homology_formula_domain():
    with pytest.raises(BadParams):
        x_homology_formula(2, 2)
    with pytest.raises(BadParams):
        x_homology_formula(2, -1)
    with pytest.raises(BadParams):
        x_homology_formula(1, 0)


# -- degree shifts ----------------------------------------------------------------------


def test_degree_shift_frozen_values():
    assert degree_shift(2, 1, 0) == Fraction(1, 4)
    assert degree_shift(2, 1, -1) == Fraction(-7, 4)
    assert degree_shift(5, 2, 0) == Fraction(1, 5)
    assert degree_shift(5, 2, 1) == Fraction(-29, 5)


def test_degree_shift_domain():
    with pytest.raises(BadParams):
        degree_shift(0, 1, 0)
    with pytest.raises(BadParams):
        degree_shift(3, 0, 0)
    with pytest.raises(BadParams):
        degree_shift(3, 3, 0)
    with pytest.raises(BadParams):
        degree_shift_argmax(2, 2)


def test_degree_shift_argmax():
    assert degree_shift_argmax(2, 1) == 0
    assert degree_shift_argmax(7, 3) == 0
    assert degree_shift_argmax(7, 5) == 0


@given(st.integers(2, 30), st.data())
def test_degree_shift_reflection_symmetry(n, data):
    k = data.draw(st.integers(1, n - 1))
    x = data.draw(st.integers(-6, 6))
    assert degree_shift(n, n - k, -x) == degree_shift(n, k, x)


@given(st.integers(2, 30), st.data())
def test_degree_shift_gap_at_the_neighbors(n, data):
    k = data.draw(st.integers(1, n - 1))
    top = degree_shift(n, k, 0)
    assert top - degree_shift(n, k, 1) == 2 * (n - k)
    assert top - degree_shift(n, k, -1) == 2 * k


def test_fraction_json():
    assert fraction_json(Fraction(-7, 4)) == {"num": -7, "den": 4}
    assert fraction_json(Fraction(3)) == {"num": 3, "den": 1}
