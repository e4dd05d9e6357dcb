"""Mutation suite: each test plants one fault by monkeypatching and asserts
that some check of the suite catches it.

A check is only worth its name if a wrong program fails it.  Each mutant
here runs in process; each test also runs its check on the unmutated code,
so a check that fails everywhere cannot pass for one that bites.
"""

import inspect
import random
import re
import sys

import pytest

from mtfloer import closed_form, exterior, homology, knot_model
from mtfloer.cli import run_sweep
from mtfloer.closed_form import theorem_answer
from mtfloer.errors import GateFailure
from mtfloer.exterior import ExtVector, XBasisElement
from mtfloer.graded import GradedGroup
from mtfloer.homology import FreeComplex, IntMatrix
from test_homology import dense_homology, from_columns, thin_block_mismatch
from mtfloer.params import Params
from test_knot_model import (
    assemble_complex,
    assert_columns_match,
    d1_image_mismatches,
    page_one_image,
    page_one_runs,
    region_generators,
    unranked,
)

REAL_WEDGE = exterior.wedge_monomials


def unsigned_wedge(m1, m2):
    """The wedge kernel with every Koszul sign dropped."""
    product = REAL_WEDGE(m1, m2)
    return None if product is None else (product[0], 1)


def bind_everywhere(monkeypatch, original, replacement):
    """Replace every binding of ``original`` in the loaded package modules."""
    bound = []
    for name, module in list(sys.modules.items()):
        if name == "mtfloer" or name.startswith("mtfloer."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
                    bound.append(name)
    return sorted(bound)


def leibniz_failures(seed=24252, trials=1000):
    """How many seeded random pairs break contract(u^v) = contract(u)^v + (-1)^|u| u^contract(v).

    This is the contraction law of acceptance criterion A5, drawn the same way.
    """
    rng = random.Random(seed)

    def random_vector(genus, terms):
        raw = []
        for _ in range(terms):
            size = rng.randint(0, 2 * genus)
            mono = tuple(sorted(rng.sample(range(2 * genus), size)))
            raw.append((mono, rng.choice([-3, -2, -1, 1, 2, 3])))
        return ExtVector.from_terms(genus, raw)

    failures = 0
    for _ in range(trials):
        genus = rng.randint(2, 4)
        size = rng.randint(0, 2 * genus)
        u = ExtVector.monomial(
            genus, sorted(rng.sample(range(2 * genus), size)), rng.choice([-2, -1, 1, 2])
        )
        v = random_vector(genus, rng.randint(0, 3))
        sign = -1 if size % 2 else 1
        rhs = u.contract().wedge(v) + u.wedge(v.contract()).scale(sign)
        failures += u.wedge(v).contract() != rhs
    return failures


def test_unsigned_wedge_kernel_breaks_the_contraction_law(monkeypatch):
    assert leibniz_failures() == 0
    bound = bind_everywhere(monkeypatch, REAL_WEDGE, unsigned_wedge)
    assert bound == ["mtfloer.exterior", "mtfloer.knot_model"]
    assert leibniz_failures() > 0
    # both sides of the page-one comparison use the kernel, so only the law sees it
    assert d1_image_mismatches() == []


def test_dropped_sign_at_the_d1_call_site_breaks_the_extvector_pin(monkeypatch):
    assert d1_image_mismatches() == []
    monkeypatch.setattr(knot_model, "wedge_monomials", unsigned_wedge)
    assert d1_image_mismatches()
    # ExtVector keeps the signed kernel, so the law still holds ...
    assert leibniz_failures(trials=200) == 0
    # ... and the groups do not see the sign: only the pin catches this mutant
    assert knot_model.oracle_hfplus(4, 3, 1).group == theorem_answer(4, 3, 1)


# -- mutants of the region runs, page two and the thin-block path ---------------

def ranked_column_mismatch(spec):
    """The failure of the page-one column comparison with the tuple reference at ``spec``, or None."""
    reference = region_generators(spec)
    ranked = unranked(spec.g, *page_one_runs(spec), labels=range(1, spec.abs_n + 1))
    reference_cx = from_columns(*assemble_complex(reference, page_one_image(spec)))
    try:
        assert_columns_match(knot_model.build_e1_region(spec), ranked, reference_cx, reference)
    except AssertionError as failure:
        return failure
    return None


REAL_SURFACE = knot_model._surface_runs
REAL_CIRCLES = knot_model._circle_runs
REAL_D1 = knot_model._d1_image
REAL_D2 = knot_model._d2_image
REAL_THIN = homology._thin_factor


def sweep_failures(monkeypatch):
    """The non-matching entries of the serial sweep over g <= 4, n = -3..3, as (triple, gate)."""
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    report = run_sweep(4, [-3, -2, -1, 1, 2, 3])
    return [
        (tuple(entry["params"].values()), entry["gate"]) for entry in report["entries"] if not entry["match"]
    ]


def surface_p_range_one_too_long(genus, k):
    """The surface runs with U-powers p = 1 .. F - k + 1."""
    by_degree = REAL_SURFACE(genus, k)
    extra = [(size, p + 1, bit) for runs in by_degree.values() for size, p, bit in runs if p == size - genus - k]
    for run in extra:
        size, p, _ = run
        by_degree.setdefault(XBasisElement(genus, tuple(range(size)), p - 1).grading, []).append(run)
    return by_degree


def circle_sizes_one_short(spec):
    """The circle runs with label sizes g + |k| + 1 .. 2g - 2."""
    by_degree = REAL_CIRCLES(spec)
    return {deg: [run for run in runs if run[0] != spec.g + spec.abs_k] for deg, runs in by_degree.items()}


def capacity_one_short(spec, run, mono):
    """The page-two arrow only while p + 1 <= capacity - 1."""
    return REAL_D2(spec, run, mono) if run[1] + 2 <= len(mono) - (spec.g - 1) - spec.abs_k else []


def test_surface_p_range_off_by_one_fails_the_tower_check(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    monkeypatch.setattr(knot_model, "_surface_runs", surface_p_range_one_too_long)
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate.startswith("failed: region/tower basis mismatch") for _, gate in failures)


def test_circle_size_range_off_by_one_fails_the_count(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    monkeypatch.setattr(knot_model, "_circle_runs", circle_sizes_one_short)
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate.startswith("failed: region has") for _, gate in failures)
    # with the count check out of the way, the page-one gate catches it
    def mutant_count(spec):
        # the surface runs once, the circle runs once for each of the |n| labels
        surface = knot_model._layout(spec.g, knot_model.BLOCKS, REAL_SURFACE(spec.g, spec.abs_k))[0]
        circles = knot_model._layout(spec.g, knot_model.CIRCLE_BLOCKS, circle_sizes_one_short(spec))[0]
        return sum(surface.values()) + spec.abs_n * sum(circles.values())

    monkeypatch.setattr(knot_model, "region_size", mutant_count)
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate.startswith("failed: page-one gate failed") for _, gate in failures)


def test_page_two_capacity_off_by_one_fails_only_the_final_comparison(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    monkeypatch.setattr(knot_model, "_d2_image", capacity_one_short)
    failures = sweep_failures(monkeypatch)
    assert failures
    # every gate passes: only the comparison with the closed form sees it
    assert all(gate == "passed" for _, gate in failures)
    assert (4, 2, 1) in [triple for triple, _ in failures]


def test_wedge_block_target_off_by_one_fails_the_row_check_and_the_page_one_gate(monkeypatch):
    spec = Params(4, -2, 1)
    assert sweep_failures(monkeypatch) == []
    assert ranked_column_mismatch(spec) is None
    # a surface wedge target is one U-power up: its rows land one past their block
    plant_source(
        monkeypatch, knot_model._ranked_page,
        "+ starts[target_block][0]",
        "+ starts[target_block][0] + (blocks is BLOCKS and target_run[1] > run[1])",
    )
    failures = sweep_failures(monkeypatch)
    gates = {gate.split(" at ")[0].split(" has row ")[0] for _, gate in failures}
    # where the wedge block ends its degree, the complex refuses the row past the end;
    # elsewhere the row lands in the next block and the page-one gate sees it
    assert gates == {"error: NotAComplex: differential", "failed: page-one gate failed"}
    assert all(
        gate.startswith("failed: page-one gate failed") or re.search(r"has row \d+, but degree -?\d+ has", gate)
        for _, gate in failures
    )
    # the comparison with the tuple reference sees it too
    assert ranked_column_mismatch(spec) is not None


def test_active_half_swapped_fails_the_page_one_gate(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    # the twist's handedness reaches the surface page only as build_x_complex's ``left``
    plant_source(monkeypatch, knot_model.build_surface_page, "left=spec.n < 0", "left=spec.n > 0")
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate.startswith("failed: page-one gate failed") for _, gate in failures)


def test_surface_run_two_degrees_off_fails_the_tower_check(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    # the top surface run, p = 1 at the largest size, two degrees up
    plant_source(
        monkeypatch, knot_model._surface_runs, "F - 2 * (p - 1)", "F - 2 * (p - 1) + 2 * (p == 1 and size == 2 * genus)"
    )
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate.startswith("failed: region/tower basis mismatch") for _, gate in failures)
    # every X(g, d) is built through the check, xgd's included
    with pytest.raises(GateFailure, match=re.escape("region/tower basis mismatch at g=3 d=2")):
        knot_model.build_x_complex(3, 2)


def test_circle_run_two_degrees_off_fails_the_page_one_gate(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    plant_source(monkeypatch, knot_model._circle_runs, "spec.eps_n - 2 * (p - 1)", "spec.eps_n - 2 * (p - 1) + 2")
    failures = sweep_failures(monkeypatch)
    assert all(gate.startswith("failed: page-one gate failed") for _, gate in failures)
    # a region has circle runs where |k| <= g - 2, and every such triple sees the move
    expected = [(g, n, k) for g in range(2, 5) for n in (-3, -2, -1, 1, 2, 3) for k in range(1, g - 1)]
    assert sorted(triple for triple, _ in failures) == sorted(expected)


def first_entry(entries):
    """The thin-block factor with the gcd replaced by the first entry's size."""
    return abs(entries[0])


def test_thin_factor_without_the_gcd_fails_both_checks(monkeypatch):
    # one column, entries 2 and 3: the one invariant factor is 1, not 2
    mat = IntMatrix.from_rows([[2], [3]])
    cx = FreeComplex.from_matrices({0: 2, 1: 1}, {1: mat})
    assert homology.VERIFY_SNF and cx.homology() == GradedGroup.free({0: 1})
    monkeypatch.setattr(homology, "VERIFY_SNF", False)
    assert not thin_block_mismatch(mat)

    monkeypatch.setattr(homology, "_thin_factor", first_entry)
    assert thin_block_mismatch(mat)
    monkeypatch.setattr(homology, "VERIFY_SNF", True)
    # a complex keeps its factors once worked out, so the mutant is read on a fresh one
    with pytest.raises(AssertionError, match="thin block factor 2, but its Smith form gives"):
        FreeComplex.from_matrices({0: 2, 1: 1}, {1: mat}).homology()


# -- source mutants -----------------------------------------------------------

REAL_THEOREM = closed_form.theorem_answer


def plant_source(monkeypatch, function, original, mutated):
    """Bind a copy of ``function`` whose source has ``original`` replaced by ``mutated``.

    The copy is compiled in a copy of its module's namespace and replaces
    every binding of ``function`` in the package.
    """
    source = inspect.getsource(function)
    assert source.count(original) == 1, original
    module = inspect.getmodule(function)
    namespace = dict(vars(module))
    exec(compile(source.replace(original, mutated), module.__file__, "exec"), namespace)
    assert bind_everywhere(monkeypatch, function, namespace[function.__name__])


def test_contraction_kept_past_the_truncation_fails_the_complex_check(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    plant_source(monkeypatch, knot_model._d1_image, "+ u <= d - 1", "+ u <= d")
    failures = sweep_failures(monkeypatch)
    assert failures
    # the contraction term lands on a generator outside the region
    assert all(gate.startswith("error: NotAComplex: differential leaves the generator set") for _, gate in failures)


def test_fixed_part_without_eps_fails_the_page_one_gate(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    plant_source(
        monkeypatch, knot_model._fixed_part, "circles_cohomology(2, spec.eps_n)", "circles_cohomology(2, 0)"
    )
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate.startswith("failed: page-one gate failed") for _, gate in failures)
    # eps is 0 for right twists, so only left twists can show it
    assert all(n < 0 for (_, n, _), _ in failures)


def test_closed_form_without_eps_fails_only_the_final_comparison(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    plant_source(monkeypatch, REAL_THEOREM, "d, eps_n = params.d, params.eps_n", "d, eps_n = params.d, 0")
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate == "passed" for _, gate in failures)
    # eps is 0 for right twists, so only left twists can show it
    assert all(n < 0 for (_, n, _), _ in failures)


def test_closed_form_label_rank_off_by_one_fails_only_the_final_comparison(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    plant_source(monkeypatch, REAL_THEOREM, "comb(2 * g - 2, d - p)", "comb(2 * g - 2, d - p + 1)")
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate == "passed" for _, gate in failures)
    # the label rank multiplies |n| - 1 sphere families, which |n| = 1 lacks
    assert all(abs(n) >= 2 for (_, n, _), _ in failures)


def handedness_dropped(spec):
    """The surface key without the twist's handedness: left and right twists share a page."""
    return spec.g, spec.abs_k


def test_surface_key_without_handedness_fails_the_page_one_gate(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    # the sweep groups by the key and the oracle looks the page up by it
    assert bind_everywhere(monkeypatch, knot_model.surface_key, handedness_dropped) == ["mtfloer.cli", "mtfloer.knot_model"]
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate.startswith("failed: page-one gate failed") for _, gate in failures)
    # a group's first triple, n = -3, builds the page: the right twists get the left twists' page
    assert all(n > 0 for (_, n, _), _ in failures)


# -- mutants of the strips ------------------------------------------------------


def wedge_rank_moved_off_the_first(mono, u, *args):
    """``_d1_image``, but a monomial whose rest lacks symbol 2, which is never the first of its
    block, sends its wedge term to the first rest of that size: another rank of the target block."""
    terms = REAL_D1(mono, u, *args)
    rest = knot_model._split(mono)[1]
    if not rest or rest[0] == 2:
        return terms
    moved = []
    for target, v, coeff in terms:
        if v > u:
            block, target_rest = knot_model._split(target)
            target = block + tuple(range(2, 2 + len(target_rest)))
        moved.append((target, v, coeff))
    return moved


def test_last_monomial_moved_off_its_rank_fails_the_builder_check(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    monkeypatch.setattr(knot_model, "_d1_image", wedge_rank_moved_off_the_first)
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(
        re.fullmatch(r"error: NotAComplex: differential at degree -?\d+ sends .* which changes the rest: not a shifted identity", gate)
        for _, gate in failures
    )
    # only the last monomial sees it: with that question dropped, the first ones speak for every block
    plant_source(
        monkeypatch, knot_model._ranked_page,
        "if length > 1 and targets(deg, run, block, last) != hit:",
        "if False:",
    )
    assert sweep_failures(monkeypatch) == []


def test_strip_length_off_by_one_fails_the_range_check_or_the_page_one_gate(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    plant_source(monkeypatch, knot_model._ranked_page, "(offset + start, length, hit)", "(offset + start, length + 1, hit)")
    failures = sweep_failures(monkeypatch)
    # every surface complex with a boundary has a block that ends its degree, and a strip one past it
    # is refused: the surface complex is checked alone, before the circle counts are added
    assert len(failures) == 18
    assert all(
        re.fullmatch(r"error: NotAComplex: differential at degree -?\d+ has (row|column) (\d+), but degree -?\d+ has \2 generators", gate)
        for _, gate in failures
    )
    monkeypatch.undo()
    # one column short wherever a block has two or more: the last column of each is left a cycle
    plant_source(
        monkeypatch, knot_model._ranked_page, "(offset + start, length, hit)", "(offset + start, length - (length > 1), hit)"
    )
    failures = sweep_failures(monkeypatch)
    assert sorted(triple for triple, _ in failures) == [(4, n, 1) for n in (-3, -2, -1, 1, 2, 3)]
    assert all(gate.startswith("failed: page-one gate failed") for _, gate in failures)


def test_cuts_left_uncarried_fail_the_interval_length_check(monkeypatch):
    # the strip ends cut the source at 1 and 2; carried along the first two strips, they cut
    # the target at 4 and 1, which no strip ends at
    strips = {1: [(0, 4, [(2, 1)]), (0, 2, [(0, 1)]), (1, 3, [(3, 1)])]}
    cx = FreeComplex({0: 6, 1: 4}, strips)
    assert cx.homology() == dense_homology(cx)
    # the refinement returns the cuts at the strip ends, before any is carried
    plant_source(
        monkeypatch, homology._refine, "if len(source) == len(src) and len(target) == len(tgt):", "if True:"
    )
    for verify in (True, False):
        monkeypatch.setattr(homology, "VERIFY_SNF", verify)
        with pytest.raises(AssertionError, match="a component's intervals differ in length"):
            FreeComplex({0: 6, 1: 4}, strips).homology()
    # the oracle's strips map run blocks onto run blocks, so one pass adds no cut there
    assert sweep_failures(monkeypatch) == []
