from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtfloer import exterior
from mtfloer.errors import BadParams, GenusMismatch
from mtfloer.exterior import (
    ExtVector,
    XBasisElement,
    build_X,
    e_half,
    monomials,
    x_ranks,
)
from mtfloer.graded import GradedGroup

GENUS = 2
TOP = 2 * GENUS


# -- strategies ----------------------------------------------------------------

monos = st.frozensets(st.integers(0, TOP - 1), max_size=TOP).map(
    lambda s: tuple(sorted(s))
)
vectors = st.lists(
    st.tuples(monos, st.integers(-3, 3)), max_size=3
).map(lambda raw: ExtVector.from_terms(GENUS, raw))


def homogeneous_of_size(size):
    choices = list(monomials(range(TOP), size))
    return st.lists(
        st.tuples(st.sampled_from(choices), st.integers(-3, 3)), max_size=3
    ).map(lambda raw: ExtVector.from_terms(GENUS, raw))


sized_vectors = st.integers(0, TOP).flatmap(
    lambda size: st.tuples(st.just(size), homogeneous_of_size(size))
)


# -- symbols --------------------------------------------------------------------


def test_monomials_enumeration():
    assert list(monomials(range(3), 2)) == [(0, 1), (0, 2), (1, 2)]
    assert list(monomials(range(3), 0)) == [()]
    assert list(monomials(range(3), 4)) == []


# -- vector construction -----------------------------------------------------------


def test_monomial_canonicalizes_with_sign():
    assert ExtVector.monomial(2, [3, 0]).terms == (((0, 3), -1),)
    assert ExtVector.monomial(2, [0, 3]).terms == (((0, 3), 1),)


def test_monomial_with_repeat_is_zero():
    assert ExtVector.monomial(2, [1, 1]).is_zero()


def test_from_terms_cancels():
    v = ExtVector.from_terms(2, [((0,), 1), ((0,), -1)])
    assert v.is_zero()


def test_out_of_range_symbol_rejected():
    with pytest.raises(ValueError):
        ExtVector(2, (((0, 4), 1),))
    with pytest.raises(BadParams):
        ExtVector.zero(0)


def test_genus_mismatch():
    with pytest.raises(GenusMismatch):
        ExtVector.unit(2) + ExtVector.unit(3)
    with pytest.raises(GenusMismatch):
        ExtVector.unit(2).wedge(ExtVector.unit(3))


# -- vector space laws ---------------------------------------------------------------


@given(vectors, vectors)
def test_add_commutes(u, v):
    assert u + v == v + u


@given(vectors)
def test_sub_self_is_zero(v):
    assert (v - v).is_zero()


@given(vectors, st.integers(-3, 3), st.integers(-3, 3))
def test_scale_distributes(v, a, b):
    assert v.scale(a) + v.scale(b) == v.scale(a + b)
    assert a * v == v.scale(a)


# -- wedge -----------------------------------------------------------------------------


def test_wedge_examples():
    a1 = ExtVector.monomial(2, [0])
    b1 = ExtVector.monomial(2, [1])
    assert a1.wedge(b1).terms == (((0, 1), 1),)
    assert b1.wedge(a1).terms == (((0, 1), -1),)
    assert a1.wedge(a1).is_zero()
    t = ExtVector.monomial(2, [0, 2, 3])
    assert b1.wedge(t).terms == (((0, 1, 2, 3), -1),)


@given(vectors)
def test_unit_is_wedge_identity(v):
    one = ExtVector.unit(GENUS)
    assert one.wedge(v) == v
    assert v.wedge(one) == v


@given(vectors, vectors, vectors)
def test_wedge_associative(u, v, w):
    assert u.wedge(v).wedge(w) == u.wedge(v.wedge(w))


@given(vectors, vectors, vectors)
def test_wedge_bilinear(u, v, w):
    assert u.wedge(v + w) == u.wedge(v) + u.wedge(w)
    assert (u + v).wedge(w) == u.wedge(w) + v.wedge(w)


@given(sized_vectors, sized_vectors)
def test_wedge_graded_commutative(su, sv):
    p, u = su
    q, v = sv
    sign = -1 if (p * q) % 2 else 1
    assert u.wedge(v) == v.wedge(u).scale(sign)


# -- contraction --------------------------------------------------------------------------


def test_contract_examples():
    assert ExtVector.monomial(2, [0, 1]).contract().terms == (((1,), 1),)
    assert ExtVector.monomial(2, [1, 2]).contract().is_zero()
    assert ExtVector.unit(2).contract().is_zero()


@given(vectors)
def test_contract_squares_to_zero(v):
    assert v.contract().contract().is_zero()


@given(sized_vectors, vectors)
def test_contract_is_an_antiderivation(su, v):
    p, u = su
    sign = -1 if p % 2 else 1
    lhs = u.wedge(v).contract()
    rhs = u.contract().wedge(v) + u.wedge(v.contract()).scale(sign)
    assert lhs == rhs


# -- the splitting along the genus-1 block ---------------------------------------------------


def test_e_half_examples():
    assert e_half((0,)) == "E-"
    assert e_half((1, 2)) == "E-"
    assert e_half(()) == "E+"
    assert e_half((0, 1)) == "E+"
    assert e_half((2, 3)) == "E+"


def scanning_e_half(mono):
    """The half by scanning the whole monomial for a1 and b1: the definition ``e_half`` shortcuts."""
    return "E-" if (0 in mono) + (1 in mono) == 1 else "E+"


def test_e_half_reads_the_first_two_symbols_as_the_scan_would():
    for genus in range(1, 6):
        for size in range(2 * genus + 1):
            for mono in monomials(range(2 * genus), size):
                assert e_half(mono) == scanning_e_half(mono), mono


@given(
    st.booleans(),
    st.booleans(),
    st.integers(2, 300).flatmap(lambda genus: st.sets(st.integers(2, 2 * genus - 1))),
)
def test_e_half_matches_the_scan_up_to_genus_300(a1, b1, rest):
    # a1 and b1 drawn apart, so every block of the genus-1 part turns up
    mono = (0,) * a1 + (1,) * b1 + tuple(sorted(rest))
    assert e_half(mono) == scanning_e_half(mono)


@pytest.mark.parametrize("genus", [2, 3])
def test_e_half_splits_evenly(genus):
    halves = {"E-": 0, "E+": 0}
    for size in range(2 * genus + 1):
        for mono in monomials(range(2 * genus), size):
            halves[e_half(mono)] += 1
    assert halves["E-"] == halves["E+"] == 2 ** (2 * genus - 1)


# -- graded shapes ------------------------------------------------------------------------------


def test_build_x_small_cases():
    assert build_X(2, -1).basis == ()
    assert x_ranks(2, -1).is_zero()
    assert x_ranks(2, 0) == GradedGroup.free({2: 1})
    assert x_ranks(2, 1) == GradedGroup.free({2: 1, 1: 4, 0: 1})
    assert x_ranks(2, 2) == GradedGroup.free(
        {2: 1, 1: 4, 0: 7, -1: 4, -2: 1}
    )
    for build in (build_X, x_ranks):
        with pytest.raises(BadParams):
            build(2, -2)
        with pytest.raises(BadParams):
            build(0, 1)


def basis_ranks(genus, d):
    """Graded ranks of X(g, d) counted off its enumerated basis."""
    ranks: dict[int, int] = {}
    for x in build_X(genus, d).basis:
        ranks[x.grading] = ranks.get(x.grading, 0) + 1
    return ranks


def test_build_x_basis_consistent_with_group():
    for x in build_X(3, 2).basis:
        assert type(x) is XBasisElement
        assert x.codegree == 2 * 3 - len(x.monomial)
        assert 0 <= x.u <= 2 - x.codegree
        assert x.grading == 3 - x.codegree - 2 * x.u


def test_basis_element_grading():
    x = XBasisElement(2, (0, 1, 2), 1)
    assert x.codegree == 1
    assert x.grading == 2 - 1 - 2
    # a named tuple: it is the plain tuple of its fields
    assert x == (2, (0, 1, 2), 1) and hash(x) == hash((2, (0, 1, 2), 1))
    assert XBasisElement(2, (0, 1), 0) < x < XBasisElement(2, (0, 1, 2), 2)


def sym_betti(genus, d, j):
    """Rank of the degree-j part of H*(Sym^d of a genus-g surface), centered.

    The reference count, one degree at a time: Macdonald's generating function
    sum_d P(Sym^d)(t) q^d = (1 + tq)^{2g} / ((1 - q)(1 - t^2 q)), with the
    cohomological degree m = g - j recentered about the middle.
    """
    if d < 0:
        return 0
    m = genus - j
    if m < 0:
        return 0
    total = 0
    for b in range(m // 2 + 1):
        r = m - 2 * b
        if r + b <= d:
            total += comb(2 * genus, r)
    return total


@pytest.mark.parametrize("genus", [1, 2, 3, 4, 5, 6])
def test_build_x_matches_symmetric_product_betti(genus):
    # the basis is counted here, apart from x_ranks, so the rank count the
    # pipeline uses is checked against the enumerated module
    for d in range(-1, genus + 2):
        ranks = basis_ranks(genus, d)
        for j in range(-(2 * genus + 4), genus + 2):
            assert ranks.get(j, 0) == sym_betti(genus, d, j), (genus, d, j)
        assert x_ranks(genus, d) == GradedGroup.free(ranks), (genus, d)


def test_x_ranks_match_the_per_degree_reference():
    for genus in range(1, 61):
        for d in range(-1, genus + 3):
            reference = {j: sym_betti(genus, d, j) for j in range(genus - 2 * d, genus + 1)}
            assert x_ranks(genus, d) == GradedGroup.free(reference), (genus, d)


@pytest.mark.parametrize("genus, d", [(1, -1), (1, 0), (5, 3), (9, 20), (40, 39)])
def test_x_ranks_take_one_binomial_per_prefix_sum(monkeypatch, genus, d):
    calls = []

    def counted(n, r):
        calls.append((n, r))
        return comb(n, r)

    monkeypatch.setattr(exterior, "comb", counted)
    x_ranks(genus, d)
    assert len(calls) <= d + 1


def test_build_x_symmetric_about_center():
    for genus in range(1, 13):
        for d in range(-1, genus + 3):
            graded = x_ranks(genus, d)
            center = genus - d
            for j in graded.degrees():
                assert graded.rank(j) == graded.rank(2 * center - j)


def test_x_ranks_out_of_range():
    assert x_ranks(2, -1).is_zero()
    assert max(x_ranks(2, 1).degrees()) == 2 and x_ranks(2, 1).rank(3) == 0
    with pytest.raises(BadParams):
        x_ranks(0, 1)
