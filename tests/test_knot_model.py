import gc
import re
from dataclasses import replace
from itertools import product
from math import comb
from typing import NamedTuple

import pytest

from mtfloer.closed_form import theorem_answer
from mtfloer.exterior import ExtVector, e_half, monomials
from mtfloer.errors import BadGenus, BadParams, GateFailure, NotAComplex, UnknownTable, ZeroTwist
from mtfloer.graded import GradedGroup
from mtfloer.homology import FreeComplex, IntMatrix, _nonzero_columns
from mtfloer import knot_model
from mtfloer.knot_model import (
    CIRCLES,
    SURFACE,
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
from test_homology import assert_blocks_match_the_reference, dense_homology

REAL_ASSEMBLE = knot_model._assemble_complex

G = GradedGroup.free


class PageGenerator(NamedTuple):
    """One region generator, field by field: the reference for the pipeline's
    plain tuples ``(tag, monomial, p, circle, eps)``.

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


def model_grading(spec, gen):
    """Region grading: label grading (with eps and the left-twist shift) minus 2p."""
    base = centered_degree(spec, gen)
    if gen.tag == CIRCLES:
        base += gen.eps + spec.eps_n
    return base - 2 * gen.p


def page_two_generators(spec):
    """The generators page two can move: the circle generators on every label but the first."""
    return knot_model._circle_generators(spec, range(2, spec.abs_n + 1))


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
    assert active_half(spec.n) == "E+"
    assert active_half(4) == "E-"
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
    assert model_grading(spec, top) == -1
    circle = PageGenerator(CIRCLES, (2, 3, 4, 5), 1, circle=2, eps=1)
    assert centered_degree(spec, circle) == 2
    assert model_grading(spec, circle) == 1
    left = Params(3, -2, 1)
    assert model_grading(left, circle) == 0


# -- page one -------------------------------------------------------------------


def test_smallest_region_is_one_generator():
    page1 = build_e1_region(Params(2, 1, 1))
    assert page1.total_size() == 1
    assert page1.degrees() == [0]
    assert not page1.differentials


def test_region_size_at_g3():
    page1 = build_e1_region(Params(3, 2, 1))
    assert page1.total_size() == 12
    assert {d: page1.size(d) for d in page1.degrees()} == {-1: 1, 0: 8, 1: 3}


def test_region_size_bound_is_enforced(monkeypatch):
    # the region at g=2, |n|=1, k=1 is one surface generator and no circles
    padding = {0: [(CIRCLES, (), 1, 0, 0)] * 49}
    monkeypatch.setattr(knot_model, "_circle_generators", lambda spec, labels: padding)
    with pytest.raises(GateFailure, match="region has 50 generators, but its count is 1"):
        build_e1_region(Params(2, 1, 1))


@pytest.mark.parametrize("g", range(2, 8))
def test_region_size_counts_the_enumeration(g):
    for n in (1, -1, 2, -2, 3, -3):
        for k in range(1, g):
            spec = Params(g, n, k)
            surface = knot_model._surface_generators(spec)
            circles = knot_model._circle_generators(spec, range(1, spec.abs_n + 1))
            enumerated = sum(len(gens) for part in (surface, circles) for gens in part.values())
            assert region_size(spec) == enumerated, spec
            assert region_size(Params(g, n, -k)) == enumerated


@pytest.mark.parametrize("spec", [Params(g, n, k) for g in range(2, 6) for n in (2, -3) for k in range(1, g)], ids=str)
def test_enumeration_degrees_are_the_model_grading(spec):
    labels = range(1, spec.abs_n + 1)
    for part in (knot_model._surface_generators(spec), knot_model._circle_generators(spec, labels)):
        for deg, gens in part.items():
            assert {model_grading(spec, PageGenerator(*gen)) for gen in gens} == {deg}


def descents(gens):
    return sum(1 for a, b in zip(gens, gens[1:]) if b < a)


@pytest.mark.parametrize("labels", [(1, 2, 3), (3, 1, 2)], ids=["sorted labels", "shuffled labels"])
def test_circle_generators_come_in_one_sorted_run_per_label_size(labels):
    spec = Params(6, 3, 1)
    sizes = len(range(spec.g + spec.abs_k, 2 * spec.g - 1))
    for deg, gens in knot_model._circle_generators(spec, labels).items():
        assert descents(gens) < sizes, deg
        # each run is one size's monomials, each followed by every label
        assert [c for _, _, _, c, _ in gens[:3]] == [1, 2, 3]


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
    spec = Params(3, 2, 1)
    full = knot_model._circle_generators

    def one_short(spec, labels):
        by_degree = full(spec, labels)
        by_degree[min(by_degree)].pop()
        return by_degree

    monkeypatch.setattr(knot_model, "_circle_generators", one_short)
    with pytest.raises(GateFailure, match="region has 11 generators, but its count is 12"):
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
    page1 = build_e1_region(spec)
    assert page1.homology() == dense_homology(page1)
    page2 = build_e2_symbolic(spec).d2_complex
    assert page2.homology() == dense_homology(page2)
    assert_blocks_match_the_reference(page1)
    assert_blocks_match_the_reference(page2)


def dense_assemble_complex(by_degree, image):
    """The assembly as it was before it went sparse: one dense matrix per
    degree, filled entry by entry, kept as the reference for the columns.
    It takes the same generators grouped by degree and the same image rule
    as ``_assemble_complex``, and returns the same sizes and columns."""
    by_degree = {deg: sorted(gens) for deg, gens in by_degree.items()}
    index = {}
    for deg, row in by_degree.items():
        for i, gen in enumerate(row):
            index[gen] = (deg, i)
    mats = {}
    for deg, sources in sorted(by_degree.items()):
        targets = by_degree.get(deg - 1)
        if not targets:
            for gen in sources:
                if list(image(gen)):
                    raise NotAComplex(f"differential leaves the generator set at degree {deg}")
            continue
        mat = IntMatrix.zeros(len(targets), len(sources))
        filled = False
        for col, gen in enumerate(sources):
            for target, coeff in image(gen):
                tdeg, row = index[target]
                if tdeg != deg - 1:
                    raise NotAComplex(f"differential drops grading by {deg - tdeg}, not 1")
                mat.data[row][col] += coeff
                filled = True
        if filled:
            mats[deg] = mat
    return {d: len(row) for d, row in by_degree.items()}, {d: _nonzero_columns(mat) for d, mat in mats.items()}


def assert_matches_dense_assembly(monkeypatch, build, *args, **kwargs):
    sparse = build(*args, **kwargs)
    with monkeypatch.context() as patched:
        patched.setattr(knot_model, "_assemble_complex", dense_assemble_complex)
        dense = build(*args, **kwargs)
    assert sparse.sizes == dense.sizes
    assert sparse.differentials == dense.differentials
    for d in sparse.degrees():
        assert sparse.differential(d) == dense.differential(d)


@pytest.mark.parametrize("spec", REGIONS, ids=region_id)
def test_region_assembly_matches_dense_reference(monkeypatch, spec):
    assert_matches_dense_assembly(monkeypatch, build_e1_region, spec)
    assert_matches_dense_assembly(monkeypatch, lambda s: build_e2_symbolic(s).d2_complex, spec)


@pytest.mark.parametrize("spec", REGIONS, ids=region_id)
def test_page_one_image_is_asked_only_of_surface_generators(monkeypatch, spec):
    handed, asked = [], []

    def recording(by_degree, image):
        handed.extend(gen for gens in by_degree.values() for gen in gens)

        def recorded(gen):
            asked.append(gen)
            return image(gen)

        return REAL_ASSEMBLE(by_degree, recorded)

    monkeypatch.setattr(knot_model, "_assemble_complex", recording)
    build_e1_region(spec)
    surface = sorted(gen for gens in knot_model._surface_generators(spec).values() for gen in gens)
    # the assembly is handed exactly the surface generators, and no circle
    assert sorted(handed) == surface
    assert not any(gen[0] == CIRCLES for gen in handed)
    assert sorted(asked) == surface


@pytest.mark.parametrize("spec", REGIONS, ids=region_id)
def test_page_one_sizes_are_the_surface_plus_the_circle_counts(spec):
    counts = {}
    labels = range(1, spec.abs_n + 1)
    for part in (knot_model._surface_generators(spec), knot_model._circle_generators(spec, labels)):
        for deg, gens in part.items():
            counts[deg] = counts.get(deg, 0) + len(gens)
    assert build_e1_region(spec).sizes == {deg: count for deg, count in counts.items() if count}


@pytest.mark.parametrize("genus", range(2, 6))
def test_x_complex_assembly_matches_dense_reference(monkeypatch, genus):
    for d in range(-1, genus + 1):
        for left in (False, True):
            assert_matches_dense_assembly(monkeypatch, build_x_complex, genus, d, left=left)


def test_assembly_keeps_one_term_columns_and_drops_a_zero_one():
    gens = ["a", "b", "x", "y"]
    by_degree = knot_model._by_degree(gens, {"a": 1, "b": 1, "x": 0, "y": 0}.__getitem__)
    rules = {"a": [("y", -3)], "b": [("x", 0)]}
    sizes, columns = knot_model._assemble_complex(by_degree, lambda gen: rules.get(gen, []))
    assert FreeComplex(sizes, columns)._columns == {1: {0: [(1, -3)]}}
    # the complex gets counts, and the generator lists are let go
    assert sizes == {0: 2, 1: 2} and by_degree == {}


def test_assembly_sums_each_column_and_stores_no_cancelled_entry():
    gens = ["a", "b", "x", "y"]
    grading = {"a": 1, "b": 1, "x": 0, "y": 0}.__getitem__
    rules = {"a": [("x", 1), ("x", -1)], "b": [("y", 1), ("x", 2), ("y", 1)]}
    by_degree = lambda: knot_model._by_degree(gens, grading)
    cx = FreeComplex(*knot_model._assemble_complex(by_degree(), lambda gen: rules.get(gen, [])))
    # a's two terms cancel, so column a holds nothing; b's two y terms add up
    assert cx._columns == {1: {1: [(1, 2), (0, 2)]}}
    assert cx.differential(1) == IntMatrix.from_rows([[0, 2], [0, 2]])
    cancelled = FreeComplex(*knot_model._assemble_complex(by_degree(), lambda gen: rules["a"] if gen == "a" else []))
    assert cancelled._columns == {} and not cancelled.differentials


def test_assembly_refuses_bad_targets():
    gens = ["a", "x", "z"]
    by_degree = lambda: knot_model._by_degree(gens, {"a": 2, "x": 1, "z": 0}.__getitem__)
    with pytest.raises(NotAComplex, match="leaves the generator set at degree 2"):
        knot_model._assemble_complex(by_degree(), lambda gen: [("w", 1)] if gen == "a" else [])
    with pytest.raises(NotAComplex, match="drops grading by 2, not 1"):
        knot_model._assemble_complex(by_degree(), lambda gen: [("z", 1)] if gen == "a" else [])
    # a one-term image takes its own path through the assembly: refuse behind a good term too
    with pytest.raises(NotAComplex, match="leaves the generator set at degree 2"):
        knot_model._assemble_complex(by_degree(), lambda gen: [("x", 1), ("w", 1)] if gen == "a" else [])
    with pytest.raises(NotAComplex, match="drops grading by 2, not 1"):
        knot_model._assemble_complex(by_degree(), lambda gen: [("x", 1), ("z", 1)] if gen == "a" else [])


def test_region_rejects_bad_circle_labels(monkeypatch):
    spec = Params(3, 2, 1)
    for labels in ([1, 1], [1]):
        with pytest.raises(BadParams, match="need 2 distinct circle labels"):
            build_e2_symbolic(spec, circle_labels=labels)
    # the oracle refuses them before either page is built
    unbuilt = lambda *args: pytest.fail("a page was built")
    monkeypatch.setattr(knot_model, "build_e1_region", unbuilt)
    monkeypatch.setattr(knot_model, "build_e2_symbolic", unbuilt)
    for labels in ([1, 1], [1]):
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
    # one extra class at X-degree 3, which is model degree 1
    off = replace(e2, fixed=e2.fixed + G({3: 1}))
    with pytest.raises(GateFailure) as failure:
        run_d1(spec, build_e1_region(spec), off)
    message = str(failure.value)
    assert message.startswith("page-one gate failed at g=4 n=2 k=1: ")
    assert re.findall(r"degree (-?\d+)", message) == ["1"]
    assert "computed rank 21 torsion none, symbolic rank 22 torsion none" in message


def test_run_d2_torsion_names_its_degree():
    spec = Params(3, 1, 1)
    e2 = build_e2_symbolic(spec)
    twisted = FreeComplex.from_matrices({4: 1, 5: 1}, {5: IntMatrix.from_rows([[2]])})
    with pytest.raises(GateFailure) as failure:
        run_d2(spec, replace(e2, d2_complex=twisted))
    assert str(failure.value) == "page-two homology has torsion at g=3 n=1 k=1 in model degrees 4 (Z/2)"


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
