import gc
import inspect
import re
import tracemalloc
from dataclasses import replace
from itertools import product
from math import comb
from typing import NamedTuple

import pytest

from mtfloer.closed_form import theorem_answer
from mtfloer.exterior import ExtVector, XBasisElement, build_X, e_half, monomials, x_ranks
from mtfloer.errors import BadGenus, BadParams, GateFailure, NotAComplex, UnknownTable, ZeroTwist
from mtfloer.graded import GradedGroup
from mtfloer.homology import FreeComplex, IntMatrix
from mtfloer import knot_model
from mtfloer.knot_model import (
    E2Page,
    FilteredGroup,
    active_half,
    build_e1_region,
    build_e2_symbolic,
    build_x_complex,
    collapse_hfk,
    hf_hat_M,
    hfk_M,
    hfplus_M,
    hfplus_pretzel_surgery,
    oracle_hfplus,
    reference_tables,
    region_size,
    run_d1,
    run_d2,
)
from mtfloer.params import Params
from test_homology import assert_matches_the_references, column_homology, element_columns, from_columns

G = GradedGroup.free

# the tags of the tuple reference's generators; the pipeline's runs carry none
SURFACE = "surface"
CIRCLES = "circles"


class PageGenerator(NamedTuple):
    """One region generator, field by field: the tuple reference's plain
    tuples ``(tag, monomial, p, circle, eps)``.

    SURFACE generators carry a genus-g monomial; CIRCLES generators carry a
    genus-(g-1) monomial (symbol indices 2..2g-1), a circle index and a
    cohomological bit eps.  The U-power p >= 1 puts the generator in column
    i = -p; its filtration is j = F - p where F is the centered exterior
    degree of the label (the circles factor itself sits in filtration 0).
    """

    tag: str
    monomial: tuple
    p: int
    circle: int = 0
    eps: int = 0


def centered_degree(spec, gen):
    """Centered exterior degree F of the generator's label."""
    if gen.tag == SURFACE:
        return len(gen.monomial) - spec.g
    return len(gen.monomial) - (spec.g - 1)


def x_grading(spec, gen):
    """A generator's degree: a surface generator's is its tower element's, (monomial, U^(p-1)) in X(g, d);
    a circle generator's is its label's grading, with eps and the left-twist shift, minus 2(p - 1)."""
    if gen.tag == SURFACE:
        return XBasisElement(spec.g, gen.monomial, gen.p - 1).grading
    return centered_degree(spec, gen) + gen.eps + spec.eps_n - 2 * (gen.p - 1)


# -- the tuple reference ----------------------------------------------------------
#
# The region as plain tuples ``(tag, monomial, p, circle, eps)`` grouped by
# degree, and the assembly that sorts, indexes and images them one by one.  The
# pipeline ran this before its generators were indexed by rank; it stays here as
# the reference the ranked pages are checked against.


def surface_generators(spec):
    """The surface generators, grouped by the grading of their tower elements."""
    by_degree = {}
    for size in range(spec.g + spec.abs_k + 1, 2 * spec.g + 1):
        F = size - spec.g
        monos = list(monomials(range(2 * spec.g), size))
        for p in range(1, F - spec.abs_k + 1):
            deg = XBasisElement(spec.g, monos[0], p - 1).grading
            by_degree.setdefault(deg, []).extend((SURFACE, mono, p, 0, 0) for mono in monos)
    return by_degree


def circle_generators(spec, labels):
    """The circle generators on ``labels``, grouped by degree F + eps + eps_n - 2(p - 1)."""
    by_degree = {}
    for size in range(spec.g + spec.abs_k, 2 * spec.g - 1):
        F = size - (spec.g - 1)
        monos = list(monomials(range(2, 2 * spec.g), size))
        for bit in (0, 1):
            for p in range(1, F - spec.abs_k + 1):
                deg = F + bit + spec.eps_n - 2 * (p - 1)
                by_degree.setdefault(deg, []).extend((CIRCLES, mono, p, c, bit) for mono in monos for c in labels)
    return by_degree


def region_generators(spec):
    """Every page-one generator, surface and circle, grouped by degree."""
    by_degree = surface_generators(spec)
    for deg, gens in circle_generators(spec, range(1, spec.abs_n + 1)).items():
        by_degree.setdefault(deg, []).extend(gens)
    return by_degree


def group_by_degree(gens, grading):
    """Generators grouped by ``grading(gen)``, for ``assemble_complex``."""
    by_degree = {}
    for gen in gens:
        by_degree.setdefault(grading(gen), []).append(gen)
    return by_degree


def stray(target, deg, positions):
    """The refusal for an image term that is not a generator of degree deg - 1."""
    for tdeg, index in positions.items():
        if target in index:
            return NotAComplex(f"differential drops grading by {deg - tdeg}, not 1")
    return NotAComplex(f"differential leaves the generator set at degree {deg}")


def assemble_complex(by_degree, image):
    """A complex's sizes and boundary columns from generators grouped by degree.

    Each degree's list is sorted, and a generator's position in it is its
    index; ``image(gen)`` gives (target generator, coefficient) pairs, and
    each column sums its generator's image by target row.  A target that is
    not a generator of degree one less is refused.
    """
    positions = {deg: {gen: i for i, gen in enumerate(sorted(gens))} for deg, gens in by_degree.items()}
    boundaries = {}
    for deg, index in positions.items():
        below = positions.get(deg - 1, {})
        columns = {}
        for gen, col in index.items():
            column = {}
            for target, coeff in image(gen):
                row = below.get(target)
                if row is None:
                    raise stray(target, deg, positions)
                column[row] = column.get(row, 0) + coeff
            if column:
                columns[col] = list(column.items())
        if columns:
            boundaries[deg] = columns
    return {deg: len(index) for deg, index in positions.items()}, boundaries


def page_one_image(spec, pd_sign=1):
    """The page-one image of one region tuple, through ``_d1_image``."""
    half = active_half(spec.n < 0)

    def image(gen):
        tag, mono, p, _, _ = gen
        if tag != SURFACE:
            return []
        terms = knot_model._d1_image(mono, p - 1, spec.g, spec.d, half, pd_sign)
        return [((SURFACE, target, u + 1, 0, 0), coeff) for target, u, coeff in terms]

    return image


def page_two_image(spec):
    """The page-two image of one circle tuple, through ``_d2_image``: the arrow keeps the label."""

    def image(gen):
        tag, mono, p, label, bit = gen
        terms = knot_model._d2_image(spec, (len(mono), p, bit), mono)
        return [((tag, target, tp, label, tbit), coeff) for (_, tp, tbit), target, coeff in terms]

    return image


def page_two_generators(spec):
    """The generators page two can move: the circle generators on every label but the first."""
    return circle_generators(spec, range(2, spec.abs_n + 1))


# -- unranking -----------------------------------------------------------------------


def colex_unrank(rank, size):
    """The size-``size`` set of symbols 2, 3, ... with this colex rank (the combinatorial number system)."""
    symbols = []
    for i in range(size, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= rank:
            c += 1
        rank -= comb(c, i)
        symbols.append(c + 2)
    return tuple(reversed(symbols))


def unrank_run(genus, tag, run, index, labels):
    """The generator at ``index`` in a run of the page ``tag``: a circle monomial by its colex
    rank and, as ``FreeComplex.copies`` lays them out, its copy, one per label in the order
    given; a surface monomial by its block (none, a1, b1, both) and the colex rank of its rest."""
    size, p, bit = run
    if tag == CIRCLES:
        rank, copy = divmod(index, len(labels))
        return (CIRCLES, colex_unrank(rank, size), p, labels[copy], bit)
    for block in ((), (0,), (1,), (0, 1)):
        length = comb(2 * genus - 2, size - len(block)) if size >= len(block) else 0
        if index < length:
            return (SURFACE, block + colex_unrank(index, size - len(block)), p, 0, 0)
        index -= length
    raise IndexError(f"index past the end of run {run}")


def unranked(genus, *parts, labels=()):
    """Every generator of a ranked page, by degree and index: ``parts`` are (tag, runs)
    pairs, and each degree lists their runs in turn, back to back, a circle run once for
    each of ``labels``."""
    by_degree = {}
    for tag, part in parts:
        for deg, runs in part.items():
            gens = by_degree.setdefault(deg, [])
            for run in runs:
                size = run[0]
                length = comb(2 * genus, size) if tag == SURFACE else len(labels) * comb(2 * genus - 2, size)
                gens.extend(unrank_run(genus, tag, run, i, labels) for i in range(length))
    return by_degree


def assert_unranks_onto(ranked, reference):
    """Unranking is a bijection from each degree's indices onto its reference generators."""
    assert {deg for deg, gens in ranked.items() if gens} == {deg for deg, gens in reference.items() if gens}
    for deg, gens in ranked.items():
        assert len(set(gens)) == len(gens) == len(reference.get(deg, ())), deg
        assert set(gens) == set(reference.get(deg, ())), deg


def assert_columns_match(cx, ranked, reference_cx, reference):
    """The ranked complex's columns, carried to the reference's indices through the unranking, are the reference's."""
    position = {deg: {gen: i for i, gen in enumerate(sorted(gens))} for deg, gens in reference.items()}
    carried = {
        deg: {
            position[deg][ranked[deg][j]]: sorted((position[deg - 1][ranked[deg - 1][i]], x) for i, x in column)
            for j, column in columns.items()
        }
        for deg, columns in element_columns(cx).items()
    }
    expected = {deg: {j: sorted(column) for j, column in columns.items()} for deg, columns in element_columns(reference_cx).items()}
    assert carried == expected
    assert cx.sizes == reference_cx.sizes


# -- parameters and gradings ---------------------------------------------------


def test_region_spec_validation():
    with pytest.raises(BadGenus):
        Params(1, 1, 1)
    with pytest.raises(ZeroTwist):
        Params(2, 0, 1)
    with pytest.raises(BadParams):
        Params(2, 1, 0)
    # a valid level past the genus bound has no region
    with pytest.raises(BadParams, match="exceeds g-1"):
        oracle_hfplus(2, 1, 2)


def test_region_spec_properties():
    spec = Params(4, -3, 2)
    assert spec.d == 1
    assert spec.eps_n == -1
    assert spec.abs_n == 3
    assert active_half(spec.n < 0) == "E+"
    assert active_half(False) == "E-"
    assert Params(4, 3, 2).eps_n == 0


def test_region_depends_on_the_level_up_to_sign():
    plus = build_e1_region(Params(3, 2, 1))
    minus = build_e1_region(Params(3, 2, -1))
    assert plus.sizes == minus.sizes
    assert plus.differentials == minus.differentials
    assert run_d1(Params(3, 2, -1), minus).k == -1


def test_generator_gradings():
    spec = Params(3, 2, 1)
    top = PageGenerator(SURFACE, tuple(range(6)), 2)
    assert centered_degree(spec, top) == 3
    assert x_grading(spec, top) == 1
    circle = PageGenerator(CIRCLES, (2, 3, 4, 5), 1, circle=2, eps=1)
    assert centered_degree(spec, circle) == 2
    assert x_grading(spec, circle) == 3
    left = Params(3, -2, 1)
    assert x_grading(left, circle) == 2


# -- page one -------------------------------------------------------------------


def test_smallest_region_is_one_generator():
    page1 = build_e1_region(Params(2, 1, 1))
    assert page1.total_size() == 1
    assert page1.degrees() == [2]
    assert not page1.differentials


def test_region_size_at_g3():
    page1 = build_e1_region(Params(3, 2, 1))
    assert page1.total_size() == 12
    assert {d: page1.size(d) for d in page1.degrees()} == {1: 1, 2: 8, 3: 3}


def test_region_size_bound_is_enforced(monkeypatch):
    # the region at g=2, |n|=1, k=1 is one surface generator and no circles;
    # a size-0 circle run at g=2 holds C(2, 0) = 1 generator
    padding = {2: [(0, p, 0) for p in range(1, 50)]}
    monkeypatch.setattr(knot_model, "_circle_runs", lambda spec: padding)
    with pytest.raises(GateFailure, match="region has 50 generators, but its count is 1"):
        build_e1_region(Params(2, 1, 1))


@pytest.mark.parametrize("g", range(2, 8))
def test_region_size_counts_the_enumeration(g):
    for n in (1, -1, 2, -2, 3, -3):
        for k in range(1, g):
            spec = Params(g, n, k)
            surface = surface_generators(spec)
            circles = circle_generators(spec, range(1, spec.abs_n + 1))
            enumerated = sum(len(gens) for part in (surface, circles) for gens in part.values())
            assert region_size(spec) == enumerated, spec
            assert region_size(Params(g, n, -k)) == enumerated


@pytest.mark.parametrize("spec", [Params(g, n, k) for g in range(2, 6) for n in (2, -3) for k in range(1, g)], ids=str)
def test_enumeration_degrees_are_the_x_grading(spec):
    labels = range(1, spec.abs_n + 1)
    for part in (surface_generators(spec), circle_generators(spec, labels)):
        for deg, gens in part.items():
            assert {x_grading(spec, PageGenerator(*gen)) for gen in gens} == {deg}


def test_page_generator_is_its_compact_tuple():
    gen = PageGenerator(CIRCLES, (2, 3), 1, circle=2, eps=1)
    assert gen == (CIRCLES, (2, 3), 1, 2, 1) and hash(gen) == hash((CIRCLES, (2, 3), 1, 2, 1))
    first = min(gen for gens in page_two_generators(Params(4, 2, 1)).values() for gen in gens)
    assert first == PageGenerator(CIRCLES, (2, 3, 4, 5, 6), 1, 2, 0)


def test_region_size_pinned_values():
    assert region_size(Params(6, 3, 1)) == 2650
    assert region_size(Params(7, 3, 1)) == 12652
    assert region_size(Params(11, 3, 1)) == 5086660
    assert build_e1_region(Params(6, 3, 1)).total_size() == 2650


def test_region_size_refuses_one_missing_generator(monkeypatch):
    # the old bound, (2^(2g) + 2|n| 2^(2g-2)) g, let a short region through
    spec = Params(3, 1, 1)
    full = knot_model._circle_runs

    def one_short(spec):
        # at g=3, k=1 every circle run is the one size-4 monomial, C(4, 4) = 1, and |n| = 1 label has it
        by_degree = full(spec)
        by_degree[min(by_degree)].pop()
        return by_degree

    monkeypatch.setattr(knot_model, "_circle_runs", one_short)
    with pytest.raises(GateFailure, match="region has 9 generators, but its count is 10"):
        build_e1_region(spec)


REGIONS = [
    Params(g, n, k)
    for g in range(2, 6)
    for n in (1, -1, 2, -2, 3, -3)
    for k in range(1, g)
]


def region_id(spec):
    # the ids these cases have always had, so their names stay stable
    return f"RegionSpec(g={spec.g}, n={spec.n}, k={spec.k})"


@pytest.mark.parametrize("spec", REGIONS, ids=region_id)
def test_region_homology_matches_dense_reference(spec):
    assert_matches_the_references(build_e1_region(spec))
    assert_matches_the_references(build_e2_symbolic(spec).d2_complex)


# every REGIONS spec and every other region with g <= 7
RANKED = REGIONS + [Params(g, n, k) for g in (6, 7) for n in (1, -1, 2, -2, 3, -3) for k in range(1, g)]


def page_one_runs(spec):
    """Page one's runs, tagged for ``unranked``: the surface runs, then one label's circle runs."""
    return (SURFACE, knot_model._surface_runs(spec.g, spec.abs_k)), (CIRCLES, knot_model._circle_runs(spec))


@pytest.mark.parametrize("spec", RANKED, ids=region_id)
def test_ranked_pages_unrank_onto_the_tuple_reference(spec):
    labels = range(1, spec.abs_n + 1)
    page_one = unranked(spec.g, *page_one_runs(spec), labels=labels)
    assert_unranks_onto(page_one, region_generators(spec))
    assert_unranks_onto(unranked(spec.g, (CIRCLES, knot_model._circle_runs(spec)), labels=labels[1:]), page_two_generators(spec))


@pytest.mark.parametrize("spec", RANKED, ids=region_id)
def test_ranked_columns_match_the_reference_assembly(spec):
    labels = range(1, spec.abs_n + 1)
    reference = region_generators(spec)
    page_one = unranked(spec.g, *page_one_runs(spec), labels=labels)
    assert_columns_match(
        build_e1_region(spec), page_one, from_columns(*assemble_complex(reference, page_one_image(spec))), reference
    )
    # page two is |n| - 1 copies of one label's page: generator i's copies are (|n| - 1) i .. (|n| - 1) i + |n| - 2
    reference = page_two_generators(spec)
    page_two = unranked(spec.g, (CIRCLES, knot_model._circle_runs(spec)), labels=labels[1:])
    reference_cx = from_columns(*assemble_complex(reference, page_two_image(spec)))
    assert_columns_match(build_e2_symbolic(spec).d2_complex, page_two, reference_cx, reference)


@pytest.mark.parametrize("spec", RANKED, ids=region_id)
def test_strip_homology_matches_the_element_columns(spec):
    for cx in (build_e1_region(spec), build_e2_symbolic(spec).d2_complex):
        assert cx.homology() == column_homology(cx)


@pytest.mark.parametrize("genus", range(2, 8))
def test_x_complex_strip_homology_matches_the_element_columns(genus):
    for d in range(-1, genus + 1):
        for left in (False, True):
            cx = build_x_complex(genus, d, left=left)
            assert cx.homology() == column_homology(cx), (d, left)


@pytest.mark.parametrize("genus", range(2, 9))
def test_circle_counts_from_the_layout_are_the_circle_page_sizes(genus):
    # page one takes one label's circle counts from the run layout, without ranking the page
    for k in [k for k in range(1 - genus, genus) if k]:
        for n in (1, -1):
            spec = Params(genus, n, k)
            circles = knot_model._circle_runs(spec)
            assert knot_model._layout(genus, knot_model.CIRCLE_BLOCKS, circles)[0] == knot_model._circle_page(spec).sizes, spec


def layout_by_binomials(symbols, runs):
    """``_layout`` with each run's length written as its binomial C(symbols, s): 2g symbols on the surface, 2g - 2 on a circle."""
    sizes, where = {}, {}
    for deg, listed in runs.items():
        offset = 0
        for run in listed:
            where[run] = (deg, offset)
            offset += comb(symbols, run[0])
        sizes[deg] = offset
    return sizes, where


def test_layout_run_lengths_are_the_binomials():
    # a run's length is the sum of its cached blocks' lengths, C(2g, s) by Vandermonde on the surface
    knot_model._run_blocks.cache_clear()
    for genus in range(2, 31):
        for k in range(-genus - 2, genus):
            runs = knot_model._surface_runs(genus, k)
            assert knot_model._layout(genus, knot_model.BLOCKS, runs) == layout_by_binomials(2 * genus, runs), (genus, k)
            for n in (1, -1):
                if k:
                    runs = knot_model._circle_runs(Params(genus, n, k))
                    layout = knot_model._layout(genus, knot_model.CIRCLE_BLOCKS, runs)
                    assert layout == layout_by_binomials(2 * genus - 2, runs), (genus, n, k)


@pytest.mark.parametrize("genus", range(2, 9))
def test_run_count_counts_the_runs(genus):
    for n in (1, -1, 2, -3, 6):
        for k in range(1, genus):
            spec = Params(genus, n, k)
            parts = (knot_model._surface_runs(genus, k), knot_model._circle_runs(spec))
            # the circle runs are one label's: every other label is a copy
            counted = sum(len(runs) for part in parts for runs in part.values())
            assert knot_model.run_count(spec.d) == counted, spec
    # X(g, d)'s count, which the run bound of xgd --homology reads at d = g - 1
    for d in range(-1, 2 * genus + 1):
        runs = knot_model._surface_runs(genus, genus - 1 - d)
        assert knot_model.x_run_count(d) == sum(len(listed) for listed in runs.values()), d


@pytest.mark.parametrize("spec", REGIONS, ids=region_id)
def test_page_one_image_is_asked_only_of_surface_generators(monkeypatch, spec):
    asked = []
    real = knot_model._d1_image

    def recording(mono, u, *args):
        asked.append((mono, u))
        return real(mono, u, *args)

    monkeypatch.setattr(knot_model, "_d1_image", recording)
    build_e1_region(spec)
    # once per (surface run, nonempty block) of the block's first monomial, once more of its
    # last one when the block has two or more, and never of a circle
    expected = [
        (block + symbols, p - 1)
        for runs in knot_model._surface_runs(spec.g, spec.abs_k).values()
        for size, p, _ in runs
        for block in knot_model.BLOCKS
        if 0 <= (rest := size - len(block)) <= 2 * spec.g - 2
        for symbols in {tuple(range(2, 2 + rest)), tuple(range(2 * spec.g - rest, 2 * spec.g))}
    ]
    assert sorted(asked) == sorted(expected)
    assert len(set(asked)) == len(asked)


def test_ranked_pages_refuse_a_term_that_changes_the_rest(monkeypatch):
    spec = Params(4, 2, 1)
    real = knot_model._d1_image

    def wedge_drops_the_last_symbol(mono, u, *args):
        return [(t[:-1], v, c) if v > u else (t, v, c) for t, v, c in real(mono, u, *args)]

    monkeypatch.setattr(knot_model, "_d1_image", wedge_drops_the_last_symbol)
    with pytest.raises(NotAComplex, match="which changes the rest: not a shifted identity"):
        build_e1_region(spec)
    monkeypatch.undo()
    monkeypatch.setattr(knot_model, "_d2_image", lambda spec, run, mono: [((len(mono) - 1, run[1] + 1, 1), mono[1:], 1)])
    with pytest.raises(NotAComplex, match="which changes the rest: not a shifted identity"):
        build_e2_symbolic(spec)


def test_ranked_pages_refuse_a_last_monomial_that_the_first_does_not_speak_for(monkeypatch):
    spec = Params(4, 2, 1)
    real = knot_model._d1_image

    def wedge_moves_a_rank_without_symbol_2(mono, u, *args):
        # the last monomial of a block lacks symbol 2 unless the block holds one monomial
        terms = real(mono, u, *args)
        if 2 in mono:
            return terms
        return [(t[:-1] + (2,) if v > u else t, v, c) for t, v, c in terms]

    monkeypatch.setattr(knot_model, "_d1_image", wedge_moves_a_rank_without_symbol_2)
    with pytest.raises(NotAComplex, match="which changes the rest: not a shifted identity"):
        build_e1_region(spec)
    # the same target block, but with the other sign
    monkeypatch.setattr(knot_model, "_d1_image", lambda mono, u, *args: [
        (t, v, c if 2 in mono else -c) for t, v, c in real(mono, u, *args)
    ])
    refusal = "differential at degree 2 sends (0, 3, 4, 5, 6, 7) elsewhere than (0, 2, 3, 4, 5, 6): not a shifted identity"
    with pytest.raises(NotAComplex, match=re.escape(refusal)):
        build_e1_region(spec)
    # page two is built on the surface page, so the surface's differential goes back first
    monkeypatch.undo()
    real_d2 = knot_model._d2_image
    monkeypatch.setattr(knot_model, "_d2_image", lambda spec, run, mono: [
        (target_run, target, 1 if 2 in mono else 2) for target_run, target, _ in real_d2(spec, run, mono)
    ])
    # at g = 5, the arrows leave runs of eight monomials
    with pytest.raises(NotAComplex, match="elsewhere than"):
        build_e2_symbolic(Params(5, 2, 1))


def test_ranked_pages_refuse_a_target_outside_the_degree_below(monkeypatch):
    spec = Params(4, 3, 1)
    # one U-power up with the same monomial, where the region has room: a run two degrees down
    room = lambda mono, u: u + 2 <= len(mono) - spec.g - spec.abs_k
    monkeypatch.setattr(knot_model, "_d1_image", lambda mono, u, *args: [(mono, u + 1, 1)] if room(mono, u) else [])
    with pytest.raises(NotAComplex, match="drops grading by 2, not 1"):
        build_e1_region(spec)
    # nine U-powers up: no run at all
    monkeypatch.setattr(knot_model, "_d1_image", lambda mono, u, *args: [(mono, u + 9, 1)])
    with pytest.raises(NotAComplex, match="leaves the generator set at degree"):
        build_e1_region(spec)
    monkeypatch.undo()
    monkeypatch.setattr(knot_model, "_d2_image", lambda spec, run, mono: [((run[0], run[1], 1 - run[2]), mono, 1)])
    with pytest.raises(NotAComplex, match="drops grading by -1, not 1"):
        build_e2_symbolic(spec)
    monkeypatch.setattr(knot_model, "_d2_image", lambda spec, run, mono: [((run[0], run[1] + 9, 1), mono, 1)])
    with pytest.raises(NotAComplex, match="leaves the generator set at degree"):
        build_e2_symbolic(spec)


def tower_runs(spec):
    return knot_model._surface_runs(spec.g, spec.abs_k)


@pytest.mark.parametrize("spec", [Params(5, 2, 1), Params(5, -3, 2), Params(4, 1, 3)], ids=str)
def test_tower_check_refuses_each_run_out_of_place(spec):
    knot_model._check_tower(spec.g, spec.d, tower_runs(spec))
    mismatch = f"region/tower basis mismatch at g={spec.g} d={spec.d}"
    top = max(tower_runs(spec))
    moved = tower_runs(spec)
    moved[top + 2] = [moved[top].pop(0)]
    gap = tower_runs(spec)
    gap[top].pop(0)
    twice = tower_runs(spec)
    twice[top].append(twice[top][0])
    extra = tower_runs(spec)
    # one U-power past the region: the p-range one too long at the top size
    last = 2 * spec.g - spec.g - spec.abs_k
    extra.setdefault(spec.g - 2 * last, []).append((2 * spec.g, last + 1, 0))
    # every run of the top size one U-power up, each in its own degree: the right count, the wrong powers
    shifted = {}
    for deg, runs in tower_runs(spec).items():
        for run in runs:
            size, p, bit = run
            if size == 2 * spec.g:
                run, deg = (size, p + 1, bit), deg - 2
            shifted.setdefault(deg, []).append(run)
    for runs in (moved, gap, twice, extra, shifted):
        with pytest.raises(GateFailure, match=re.escape(mismatch)):
            knot_model._check_tower(spec.g, spec.d, runs)


def test_tower_check_enumerates_no_monomial():
    spec = Params(12, 3, 1)
    runs = tower_runs(spec)
    tracemalloc.start()
    try:
        knot_model._check_tower(spec.g, spec.d, runs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the check reads run shapes: its peak does not grow with the region or the tower
    assert region_size(spec) == 22_001_046
    assert x_ranks(spec.g, spec.d).total_rank() == 9_188_406
    assert peak < 100_000


def stream_tower_check(spec, surface):
    """The tower check as an element-by-element stream: True when the surface runs are X(g, d).

    Each run's degree is checked against the tower grading, each size's
    U-powers must be 1 .. P, each once, and then the region's (genus,
    monomial, u) elements, size down, monomials in lex order and u up, must
    be ``build_X``'s basis in its order.
    """
    g = spec.g
    powers = {}
    for deg, runs in surface.items():
        for size, p, _ in runs:
            if XBasisElement(g, tuple(range(size)), p - 1).grading != deg:
                return False
            powers.setdefault(size, []).append(p)
    if any(set(ps) != set(range(1, len(ps) + 1)) for ps in powers.values()):
        return False
    found = (
        (g, mono, u)
        for size in range(2 * g, -1, -1)
        if size in powers
        for mono in monomials(range(2 * g), size)
        for u in range(len(powers[size]))
    )
    return tuple(found) == build_X(g, spec.d).basis


def shape_tower_check(spec, surface):
    """``_check_tower``'s verdict, with its refusal text checked."""
    try:
        knot_model._check_tower(spec.g, spec.d, surface)
    except GateFailure as failure:
        assert str(failure) == f"region/tower basis mismatch at g={spec.g} d={spec.d}"
        return False
    return True


def single_run_perturbations(runs):
    """Every run set that differs from ``runs`` in one run.

    The run is dropped, doubled, or replaced by itself or a copy with p + 1,
    p - 1, size + 1 or size - 1, moved by -2, 0 or +1 degrees.
    """
    for deg, listed in runs.items():
        for i, run in enumerate(listed):
            size, p, bit = run
            dropped = {d: [r for j, r in enumerate(rs) if (d, j) != (deg, i)] for d, rs in runs.items()}
            yield dropped
            yield {**runs, deg: listed + [run]}
            for new in (run, (size, p + 1, bit), (size, p - 1, bit), (size + 1, p, bit), (size - 1, p, bit)):
                for move in (-2, 0, 1):
                    if (new, move) != (run, 0):
                        out = {d: list(rs) for d, rs in dropped.items()}
                        out.setdefault(deg + move, []).append(new)
                        yield out


@pytest.mark.parametrize("genus", range(2, 7))
def test_tower_check_by_shape_gives_the_stream_verdict(genus):
    for k in range(1, genus):
        spec = Params(genus, 1, k)
        assert shape_tower_check(spec, tower_runs(spec)) is stream_tower_check(spec, tower_runs(spec)) is True
        for runs in single_run_perturbations(tower_runs(spec)):
            assert shape_tower_check(spec, runs) is stream_tower_check(spec, runs), (spec, runs)


@pytest.mark.parametrize("spec", REGIONS, ids=region_id)
def test_page_one_sizes_are_the_surface_plus_the_circle_counts(spec):
    counts = {}
    labels = range(1, spec.abs_n + 1)
    for part in (surface_generators(spec), circle_generators(spec, labels)):
        for deg, gens in part.items():
            counts[deg] = counts.get(deg, 0) + len(gens)
    assert build_e1_region(spec).sizes == {deg: count for deg, count in counts.items() if count}


@pytest.mark.parametrize("genus", range(2, 6))
def test_x_complex_columns_match_the_reference_assembly(genus):
    for d in range(-1, genus + 1):
        basis = build_X(genus, d).basis
        reference = group_by_degree(basis, lambda x: x.grading)
        # X(g, d) is the surface summand at level g - 1 - d
        runs = knot_model._surface_runs(genus, genus - 1 - d)
        ranked = {
            deg: [XBasisElement(genus, mono, p - 1) for _, mono, p, _, _ in gens]
            for deg, gens in unranked(genus, (SURFACE, runs)).items()
        }
        assert_unranks_onto(ranked, reference)
        for left in (False, True):
            half = "E+" if left else "E-"

            def image(x):
                terms = knot_model._d1_image(x.monomial, x.u, genus, d, half, 1)
                return [(XBasisElement(genus, mono, u), coeff) for mono, u, coeff in terms]

            reference_cx = from_columns(*assemble_complex(reference, image))
            assert_columns_match(build_x_complex(genus, d, left=left), ranked, reference_cx, reference)


def test_assembly_keeps_one_term_columns_and_drops_a_zero_one():
    gens = ["a", "b", "x", "y"]
    by_degree = group_by_degree(gens, {"a": 1, "b": 1, "x": 0, "y": 0}.__getitem__)
    rules = {"a": [("y", -3)], "b": [("x", 0)]}
    sizes, columns = assemble_complex(by_degree, lambda gen: rules.get(gen, []))
    assert element_columns(from_columns(sizes, columns)) == {1: {0: [(1, -3)]}}
    assert sizes == {0: 2, 1: 2}


def test_assembly_sums_each_column_and_stores_no_cancelled_entry():
    gens = ["a", "b", "x", "y"]
    grading = {"a": 1, "b": 1, "x": 0, "y": 0}.__getitem__
    rules = {"a": [("x", 1), ("x", -1)], "b": [("y", 1), ("x", 2), ("y", 1)]}
    by_degree = lambda: group_by_degree(gens, grading)
    cx = from_columns(*assemble_complex(by_degree(), lambda gen: rules.get(gen, [])))
    # a's two terms cancel, so column a holds nothing; b's two y terms add up
    assert element_columns(cx) == {1: {1: [(0, 2), (1, 2)]}}
    assert cx.differential(1) == IntMatrix.from_rows([[0, 2], [0, 2]])
    cancelled = from_columns(*assemble_complex(by_degree(), lambda gen: rules["a"] if gen == "a" else []))
    assert element_columns(cancelled) == {} and not cancelled.differentials


def test_assembly_refuses_bad_targets():
    gens = ["a", "x", "z"]
    by_degree = lambda: group_by_degree(gens, {"a": 2, "x": 1, "z": 0}.__getitem__)
    with pytest.raises(NotAComplex, match="leaves the generator set at degree 2"):
        assemble_complex(by_degree(), lambda gen: [("w", 1)] if gen == "a" else [])
    with pytest.raises(NotAComplex, match="drops grading by 2, not 1"):
        assemble_complex(by_degree(), lambda gen: [("z", 1)] if gen == "a" else [])
    # a one-term image takes its own path through the assembly: refuse behind a good term too
    with pytest.raises(NotAComplex, match="leaves the generator set at degree 2"):
        assemble_complex(by_degree(), lambda gen: [("x", 1), ("w", 1)] if gen == "a" else [])
    with pytest.raises(NotAComplex, match="drops grading by 2, not 1"):
        assemble_complex(by_degree(), lambda gen: [("x", 1), ("z", 1)] if gen == "a" else [])


def test_default_circle_labels_are_never_listed():
    # at g = 2 the region has no circle run, whatever n; a billion labels cost nothing
    tracemalloc.start()
    try:
        assert oracle_hfplus(2, -10**9, 1).group == theorem_answer(2, -10**9, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # given labels are checked, in any order
    for labels in ([3, 1, 2], None, range(1, 4)):
        assert oracle_hfplus(3, 3, 1, circle_labels=labels).group == theorem_answer(3, 3, 1)


def test_region_rejects_bad_circle_labels(monkeypatch):
    # the page builders take no labels: page two is |n| - 1 copies of one label's page
    for builder in (build_e1_region, build_e2_symbolic):
        assert "circle_labels" not in inspect.signature(builder).parameters
        assert "pd_sign" not in inspect.signature(builder).parameters
    # the oracle refuses them before either page is built
    unbuilt = lambda *args: pytest.fail("a page was built")
    monkeypatch.setattr(knot_model, "build_e1_region", unbuilt)
    monkeypatch.setattr(knot_model, "build_e2_symbolic", unbuilt)
    for labels in ([1, 1], [1], [1, 2, 3]):
        with pytest.raises(BadParams, match="need 2 distinct circle labels"):
            oracle_hfplus(3, 2, 1, circle_labels=labels)


# -- page two -------------------------------------------------------------------


def test_e2_shape_at_g3():
    spec = Params(3, 2, 1)
    e2 = build_e2_symbolic(spec)
    assert e2.fixed == G({3: 2, 2: 6})
    active = page_two_generators(spec)
    assert e2.d2_complex.sizes == {deg: len(gens) for deg, gens in active.items()}
    assert e2.d2_complex.total_size() == 2
    assert not e2.d2_complex.differentials


def test_e2_single_twist_has_no_active_part():
    spec = Params(3, 1, 1)
    e2 = build_e2_symbolic(spec)
    assert e2.fixed == G({3: 2, 2: 6})
    assert not any(page_two_generators(spec).values())
    assert e2.d2_complex.sizes == {}


def test_e2_arrows_appear_at_g4():
    spec = Params(4, 2, 1)
    e2 = build_e2_symbolic(spec)
    active = page_two_generators(spec)
    assert e2.d2_complex.sizes == {deg: len(gens) for deg, gens in active.items()}
    assert e2.d2_complex.total_size() == 16
    arrows = sum(
        sum(1 for x in row if x)
        for mat in e2.d2_complex.differentials.values()
        for row in mat.data
    )
    assert arrows == 1
    assert e2.d2_complex.homology().total_rank() == 14


def test_corrupt_hook_drops_arrows():
    e2 = build_e2_symbolic(Params(4, 2, 1), corrupt_d2=True)
    assert not e2.d2_complex.differentials
    assert e2.d2_complex.homology().total_rank() == 16


# -- the gate and the pipeline -----------------------------------------------------


def test_run_d1_reports_in_x_convention():
    spec = Params(2, 1, 1)
    result = run_d1(spec, build_e1_region(spec))
    assert result.group == G({2: 1})
    assert (result.pipeline, result.page, result.gate) == ("oracle", "E2", "passed")


def test_run_d1_gate_rejects_wrong_homology():
    spec = Params(2, 1, 1)
    with pytest.raises(GateFailure):
        run_d1(spec, FreeComplex({0: 2}))


def test_run_d1_gate_names_only_the_differing_degree():
    spec = Params(4, 2, 1)
    e2 = build_e2_symbolic(spec)
    # one extra class at degree 3
    off = replace(e2, fixed=e2.fixed + G({3: 1}))
    with pytest.raises(GateFailure) as failure:
        run_d1(spec, build_e1_region(spec), off)
    message = str(failure.value)
    assert message.startswith("page-one gate failed at g=4 n=2 k=1: ")
    assert re.findall(r"degree (-?\d+)", message) == ["3"]
    assert "computed rank 21 torsion none, symbolic rank 22 torsion none" in message


def test_run_d2_torsion_names_its_degree():
    spec = Params(3, 1, 1)
    e2 = build_e2_symbolic(spec)
    twisted = FreeComplex.from_matrices({4: 1, 5: 1}, {5: IntMatrix.from_rows([[2]])})
    with pytest.raises(GateFailure) as failure:
        run_d2(spec, replace(e2, d2_complex=twisted))
    assert str(failure.value) == "page-two homology has torsion at g=3 n=1 k=1 in degrees 4 (Z/2)"


def test_run_d2_without_active_part_returns_fixed():
    spec = Params(3, 1, 1)
    e2 = build_e2_symbolic(spec)
    result = run_d2(spec, e2)
    assert result.group == e2.fixed
    assert result.page == "final"


def test_oracle_frozen_values():
    assert oracle_hfplus(2, 1, 1).group == G({2: 1})
    assert oracle_hfplus(3, 2, 1).group == G({3: 3, 2: 7})
    assert oracle_hfplus(3, -2, 1).group == G({2: 7, 1: 3})


def test_oracle_conjugation_symmetry():
    plus = oracle_hfplus(3, 2, 1)
    minus = oracle_hfplus(3, 2, -1)
    assert plus.group == minus.group
    assert minus.k == -1


def test_oracle_parameter_errors():
    with pytest.raises(BadParams):
        oracle_hfplus(3, 2, 0)
    with pytest.raises(BadParams):
        oracle_hfplus(3, 2, 3)
    with pytest.raises(ZeroTwist):
        oracle_hfplus(3, 0, 1)


def test_oracle_invariant_under_conventions():
    base = oracle_hfplus(3, 2, 1).group
    assert oracle_hfplus(3, 2, 1, pd_sign=-1).group == base
    assert oracle_hfplus(3, 2, 1, circle_labels=[7, 3]).group == base


def test_corrupt_hook_is_detectable():
    broken = oracle_hfplus(4, 2, 1, corrupt_d2=True).group
    honest = oracle_hfplus(4, 2, 1).group
    closed = theorem_answer(4, 2, 1)
    assert honest == closed == G({4: 3, 3: 20, 2: 35, 1: 3})
    assert broken == G({4: 3, 3: 21, 2: 36, 1: 3})
    assert broken != closed


# -- the paused cyclic collector --------------------------------------------------------


@pytest.fixture
def collector():
    """Run a test with the collector on, and leave it as it was found."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def test_oracle_pauses_the_collector_and_restores_it(monkeypatch, collector):
    seen = []
    real = knot_model.build_e1_region

    def watched(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(knot_model, "build_e1_region", watched)
    assert oracle_hfplus(4, 3, 1).group == theorem_answer(4, 3, 1)
    assert seen == [False]
    assert gc.isenabled()


def test_oracle_restores_the_collector_after_a_failed_gate(monkeypatch, collector):
    real = knot_model.build_e2_symbolic

    def one_rank_too_many(*args):
        e2 = real(*args)
        return E2Page(e2.fixed + G({0: 1}), e2.d2_complex)

    monkeypatch.setattr(knot_model, "build_e2_symbolic", one_rank_too_many)
    with pytest.raises(GateFailure, match="page-one gate failed"):
        oracle_hfplus(4, 3, 1)
    assert gc.isenabled()


def test_oracle_leaves_a_paused_collector_paused(collector):
    gc.disable()
    assert oracle_hfplus(4, 3, 1).group == theorem_answer(4, 3, 1)
    assert not gc.isenabled()


# -- the tower complex ----------------------------------------------------------------


def test_x_complex_homology_frozen_values():
    assert build_x_complex(2, 1).homology() == G({2: 1, 1: 3})
    assert build_x_complex(2, 1, left=True).homology() == G({1: 3, 0: 1})
    assert build_x_complex(3, 1).homology() == G({3: 1, 2: 5})
    assert build_x_complex(3, 1, left=True).homology() == G({2: 5, 1: 1})


def test_x_complex_degenerate_truncation():
    cx = build_x_complex(2, 0)
    assert cx.homology() == G({2: 1})
    with pytest.raises(BadGenus):
        build_x_complex(1, 0)


def test_x_complex_pd_sign_does_not_change_homology():
    assert (
        build_x_complex(3, 2, pd_sign=-1).homology()
        == build_x_complex(3, 2).homology()
    )


# -- the page-one differential against ExtVector ---------------------------------------


def ext_d1_image(mono, u, genus, d, half, pd_sign):
    """The page-one image of ``mono (x) U^u`` built from ExtVector.

    The active-half and truncation rules are those of ``_d1_image``; the
    contraction and the left wedge with b1 come from ExtVector, the
    algebra whose laws A5 checks.
    """
    if e_half(mono) != half:
        return []
    x = ExtVector.monomial(genus, mono)
    out = []
    if 2 * genus - len(mono) + u <= d - 1:
        out += [(m, u, c) for m, c in x.contract().terms]
    out += [(m, u + 1, pd_sign * c) for m, c in ExtVector.monomial(genus, [1]).wedge(x).terms]
    return out


def d1_cases():
    """Every monomial with g <= 4, 0 <= u <= d <= g - 1, both halves and both pd_signs."""
    for genus in range(1, 5):
        monos = [m for size in range(2 * genus + 1) for m in monomials(range(2 * genus), size)]
        for mono, d, half, pd_sign in product(monos, range(genus), ("E-", "E+"), (1, -1)):
            for u in range(d + 1):
                yield mono, u, genus, d, half, pd_sign


def d1_image_mismatches():
    return [
        case for case in d1_cases() if knot_model._d1_image(*case) != ext_d1_image(*case)
    ]


def test_d1_image_matches_ext_vector():
    assert d1_image_mismatches() == []
    # the comparison sees both terms and both signs of the wedge
    assert knot_model._d1_image((0, 2, 3), 0, 2, 2, "E-", 1) == [
        ((2, 3), 0, 1),
        ((0, 1, 2, 3), 1, -1),
    ]
    assert knot_model._d1_image((2,), 0, 2, 1, "E+", -1) == [((1, 2), 1, -1)]


# -- filtered tables --------------------------------------------------------------------


def test_filtered_group_validation():
    with pytest.raises(ValueError):
        FilteredGroup(((1, G({0: 1})), (0, G({0: 1}))))
    with pytest.raises(ValueError):
        FilteredGroup(((0, GradedGroup.zero()),))
    assert FilteredGroup.of({0: GradedGroup.zero()}) == FilteredGroup()


def test_filtered_group_accessors():
    table = FilteredGroup.of({1: G({1: 1}), -1: G({-1: 2})})
    assert table.filtrations() == (-1, 1)
    assert table.level(1) == G({1: 1})
    assert table.level(5).is_zero()
    assert table.flatten() == G({-1: 2, 1: 1})
    assert table.total_rank() == 3


def test_filtered_group_json():
    table = FilteredGroup.of({1: G({0: 1})})
    assert table.to_json_dict() == {
        "filtration": [
            {"j": 1, "degrees": [{"degree": 0, "rank": 1, "torsion": []}]}
        ]
    }


def filtered_tensor(a, b):
    """Bigraded tensor product of two filtered tables: filtrations add, gradings convolve."""
    acc = {}
    for j1, g1 in a.levels:
        for j2, g2 in b.levels:
            acc[j1 + j2] = acc.get(j1 + j2, GradedGroup.zero()) + g1.tensor(g2)
    return FilteredGroup.of(acc)


def test_filtered_tensor_adds_filtrations():
    a = FilteredGroup.of({0: G({0: 1}), 1: G({1: 1})})
    b = FilteredGroup.of({2: G({0: 2})})
    assert filtered_tensor(a, b) == FilteredGroup.of({2: G({0: 2}), 3: G({1: 2})})


def test_hfk_table_small_twist():
    table = hfk_M(1)
    assert table.filtrations() == (-1, 0, 1)
    assert table.level(1) == G({1: 1})
    assert table.level(0) == G({0: 3, 1: 1})
    assert table.level(-1) == G({-1: 1})


def test_hfk_table_twist_two():
    table = hfk_M(2)
    assert table.level(1) == G({1: 1})
    assert table.level(0) == G({0: 4, 1: 2})
    assert table.level(-1) == G({-1: 1})
    assert table.total_rank() == 8


def test_hfk_table_left_twist():
    table = hfk_M(-1)
    assert table.level(0) == G({-1: 1, 0: 3})
    assert table.level(1) == G({1: 1})


def lambda_filtered(genus):
    """Exterior algebra of a genus-h surface with filtration = centered degree."""
    if genus < 0:
        raise BadGenus("genus must be nonnegative")
    return FilteredGroup.of(
        {e - genus: G({e - genus: comb(2 * genus, e)}) for e in range(2 * genus + 1)}
    )


def build_hfk(g, n):
    """Knot Floer table of the full connected-sum knot at genus g, signed twist:
    the small summand's table ``hfk_M(n)`` tensored with the exterior algebra
    of a genus-(g-1) surface."""
    return filtered_tensor(hfk_M(n), lambda_filtered(g - 1))


def test_lambda_filtered_trivial_genus():
    assert lambda_filtered(0) == FilteredGroup.of({0: G({0: 1})})
    with pytest.raises(BadGenus):
        lambda_filtered(-1)


def summand_hfk(g, n):
    """The full knot Floer table assembled summand by summand: the genus-g
    exterior algebra plus |n| circle pairs on the genus-(g-1) one."""
    shift = 0 if n > 0 else -1
    acc = {}
    for e in range(2 * g + 1):
        j = e - g
        acc[j] = acc.get(j, GradedGroup.zero()) + G({j: comb(2 * g, e)})
    for e in range(2 * g - 1):
        j = e - (g - 1)
        rank = abs(n) * comb(2 * g - 2, e)
        acc[j] = acc.get(j, GradedGroup.zero()) + G({j + shift: rank, j + shift + 1: rank})
    return FilteredGroup.of(acc)


def test_hfk_kunneth_factorization():
    for g in (2, 3, 4):
        for n in (1, -2, 3):
            assert build_hfk(g, n) == summand_hfk(g, n), (g, n)


def table_json(levels):
    """The JSON form of a torsion-free table given as {j: {degree: rank}}."""
    return {
        "filtration": [
            {
                "j": j,
                "degrees": [
                    {"degree": d, "rank": r, "torsion": []} for d, r in sorted(ranks.items())
                ],
            }
            for j, ranks in sorted(levels.items())
        ]
    }


def test_build_hfk_pinned_values():
    assert build_hfk(2, 1).to_json_dict() == table_json(
        {-2: {-2: 1}, -1: {-1: 5, 0: 1}, 0: {0: 8, 1: 2}, 1: {1: 5, 2: 1}, 2: {2: 1}}
    )
    assert build_hfk(2, -1).to_json_dict() == table_json(
        {-2: {-2: 1}, -1: {-2: 1, -1: 5}, 0: {-1: 2, 0: 8}, 1: {0: 1, 1: 5}, 2: {2: 1}}
    )
    assert build_hfk(3, -2).to_json_dict() == table_json(
        {
            -3: {-3: 1},
            -2: {-3: 2, -2: 8},
            -1: {-2: 8, -1: 23},
            0: {-1: 12, 0: 32},
            1: {0: 8, 1: 23},
            2: {1: 2, 2: 8},
            3: {3: 1},
        }
    )


def test_full_hfk_total_rank():
    assert build_hfk(2, 1).total_rank() == 24
    assert build_hfk(2, -1).total_rank() == 24
    assert build_hfk(3, 2).total_rank() == (4 + 2 * 2) * 2**4


def test_zero_twist_rejected_everywhere():
    for fn in (hfk_M, collapse_hfk, hf_hat_M):
        with pytest.raises(ZeroTwist):
            fn(0)


def test_collapse_matches_hat_table():
    for n in (1, 2, 3, -1, -2, -3):
        assert collapse_hfk(n) == hf_hat_M(n), n


def test_hat_table_values():
    assert hf_hat_M(3) == G({1: 4, 0: 4})
    assert hf_hat_M(-3) == G({0: 4, -1: 4})


def test_tower_tables():
    assert hfplus_pretzel_surgery(2, 3) == G({0: 2, 1: 1, 2: 1, 3: 1})
    assert hfplus_pretzel_surgery(1, 0) == G({0: 1})
    assert hfplus_M(2, 2) == G({0: 3, 1: 2, 2: 2})
    with pytest.raises(BadParams):
        hfplus_pretzel_surgery(0, 3)
    with pytest.raises(BadParams):
        hfplus_M(2, -1)


def test_reference_table_dispatch():
    assert reference_tables("hfk_M1", 1) == hfk_M(1)
    assert reference_tables("hfk_Mn", 4) == hfk_M(4)
    assert reference_tables("hf_hat_Mn", -2) == hf_hat_M(-2)
    assert reference_tables("hfplus_Z", 2, top=3) == hfplus_pretzel_surgery(2, 3)
    assert reference_tables("hfplus_Mn", 2, top=3) == hfplus_M(2, 3)


def test_reference_table_errors():
    with pytest.raises(BadParams):
        reference_tables("hfk_M1", 2)
    with pytest.raises(BadParams):
        reference_tables("hfplus_Z", 2)
    with pytest.raises(UnknownTable):
        reference_tables("nonsense", 1)
