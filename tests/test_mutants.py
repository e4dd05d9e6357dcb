"""Mutation suite: each test plants one fault by monkeypatching and asserts
that some check of the suite catches it.

A check is only worth its name if a wrong program fails it.  Each mutant
here runs in process; each test also runs its check on the unmutated code,
so a check that fails everywhere cannot pass for one that bites.
"""

import random
import sys

import pytest

from mtfloer import exterior, homology, knot_model
from mtfloer.cli import run_sweep
from mtfloer.closed_form import theorem_answer
from mtfloer.exterior import ExtVector
from mtfloer.graded import GradedGroup
from mtfloer.homology import FreeComplex, IntMatrix
from test_homology import thin_block_mismatch
from test_knot_model import d1_image_mismatches

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


# -- mutants of the compact enumeration, page two and the thin-block path --------

REAL_SURFACE = knot_model._surface_generators
REAL_CIRCLES = knot_model._circle_generators
REAL_D2 = knot_model._d2_image
REAL_THIN = homology._thin_factor


def sweep_failures(monkeypatch):
    """The non-matching entries of the serial sweep over g <= 4, n = -3..3, as (triple, gate)."""
    monkeypatch.setenv("MTFLOER_THREADS", "1")
    report = run_sweep(4, [-3, -2, -1, 1, 2, 3])
    return [
        (tuple(entry["params"].values()), entry["gate"]) for entry in report["entries"] if not entry["match"]
    ]


def surface_p_range_one_too_long(spec):
    """The surface enumeration with U-powers p = 1 .. F - |k| + 1."""
    by_degree = REAL_SURFACE(spec)
    extra = [
        (tag, mono, p + 1, c, bit)
        for gens in by_degree.values()
        for tag, mono, p, c, bit in gens
        if p == len(mono) - spec.g - spec.abs_k
    ]
    for gen in extra:
        _, mono, p, _, _ = gen
        by_degree.setdefault(len(mono) - spec.g - 2 * p, []).append(gen)
    return by_degree


def circle_sizes_one_short(spec, labels):
    """The circle enumeration with label sizes g + |k| + 1 .. 2g - 2."""
    by_degree = REAL_CIRCLES(spec, labels)
    return {deg: [gen for gen in gens if len(gen[1]) != spec.g + spec.abs_k] for deg, gens in by_degree.items()}


def capacity_one_short(spec, gen):
    """The page-two arrow only while p + 1 <= capacity - 1."""
    _, mono, p, _, _ = gen
    return REAL_D2(spec, gen) if p + 2 <= len(mono) - (spec.g - 1) - spec.abs_k else []


def test_surface_p_range_off_by_one_fails_the_tower_check(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    monkeypatch.setattr(knot_model, "_surface_generators", surface_p_range_one_too_long)
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate.startswith("failed: region/tower basis mismatch") for _, gate in failures)


def test_circle_size_range_off_by_one_fails_the_count(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    monkeypatch.setattr(knot_model, "_circle_generators", circle_sizes_one_short)
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate.startswith("failed: region has") for _, gate in failures)
    # with the count check out of the way, the page-one gate catches it
    def mutant_count(spec):
        parts = (REAL_SURFACE(spec), circle_sizes_one_short(spec, range(1, spec.abs_n + 1)))
        return sum(len(gens) for part in parts for gens in part.values())

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


def swapped_half(n):
    """The active half of the other twist direction."""
    return "E+" if n > 0 else "E-"


def test_active_half_swapped_fails_the_page_one_gate(monkeypatch):
    assert sweep_failures(monkeypatch) == []
    # build_e1_region reads the half through the module; the sweep runs no other caller
    monkeypatch.setattr(knot_model, "active_half", swapped_half)
    failures = sweep_failures(monkeypatch)
    assert failures
    assert all(gate.startswith("failed: page-one gate failed") for _, gate in failures)


def first_entry(entries):
    """The thin-block factor with the gcd replaced by the first entry's size."""
    return abs(entries[0])


def test_thin_factor_without_the_gcd_fails_both_checks(monkeypatch):
    # one column, entries 2 and 3: the one invariant factor is 1, not 2
    mat = IntMatrix.from_rows([[2], [3]])
    cx = FreeComplex.from_matrices({0: ["x", "y"], 1: ["a"]}, {1: mat})
    assert homology.VERIFY_SNF and cx.homology() == GradedGroup.free({0: 1})
    monkeypatch.setattr(homology, "VERIFY_SNF", False)
    assert not thin_block_mismatch(mat)

    monkeypatch.setattr(homology, "_thin_factor", first_entry)
    assert thin_block_mismatch(mat)
    monkeypatch.setattr(homology, "VERIFY_SNF", True)
    with pytest.raises(AssertionError, match="thin block factor 2, but its Smith form gives"):
        cx.homology()
