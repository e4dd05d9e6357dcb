"""Model knot-complex pages for separating-twist mapping tori.

The mapping torus of the n-th power of a right-handed Dehn twist along a
genus-1 separating circle in a genus-g surface is 0-surgery on a knot in a
connected sum of a small Seifert-fibered piece with 2g-2 copies of
S^1 x S^2.  Its plus-flavor Floer group in the k-th nontorsion spin-c
structure is the homology of the region {i < 0, j >= k} of the associated
knot complex.  This module realizes that region explicitly: generators are
enumerated, the page-one differential (contraction plus wedge, supported on
one half of the splitting along the genus-1 block) is applied with region
truncation, the page-two differential moves the surviving circle summands,
and nothing differs after that.

Everything is computed over the integers; the only non-computation in the
pipeline is the symbolic page-two bookkeeping, which is cross-checked
against the genuinely computed page-one homology by a rank gate that aborts
the run on any discrepancy.

Gradings: complexes over region generators carry the raw region ("model")
grading; reported results are shifted by +2 into the symmetric-product
("X") convention, under which comparisons to the closed form are exact.

Region generators are compact: plain tuples ``(tag, monomial, p, circle,
eps)``, enumerated already grouped by model degree.  SURFACE generators
carry a genus-g monomial; CIRCLES generators carry a genus-(g-1) monomial
(symbol indices 2..2g-1), a circle index and a cohomological bit eps.  The
U-power p >= 1 puts a generator in column i = -p.  The degree is worked out
once per (label size, p, eps) by arithmetic, so no per-generator grading
call, object or Python-level comparison runs on the hot path, and sorting
and hashing run on native tuples.  The tuples live only while a page is
assembled: a complex keeps the number of generators in each degree and its
boundary columns, nothing else.

Page one is a direct sum: the surface complex, assembled from its
generators, plus the circle generators, which no arrow leaves or hits.  The
circles enter page one as counted cycles only, one count per degree.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Sequence

from .errors import BadGenus, BadParams, GateFailure, NotAComplex, UnknownTable, ZeroTwist
from .exterior import (
    Monomial,
    XBasisElement,
    build_X,
    contract_monomial,
    e_half,
    monomials,
    wedge_monomials,
    x_ranks,
)
from .graded import GradedGroup, circles_cohomology
from .homology import FreeComplex
from .params import Params, eps

SURFACE = "surface"
CIRCLES = "circles"


def active_half(n: int) -> str:
    """Half of the exterior splitting the page-one differential acts on."""
    return "E-" if n > 0 else "E+"


@dataclass(frozen=True)
class HomologyResult:
    """A graded group plus the provenance the CLI reports alongside it."""

    group: GradedGroup
    pipeline: str
    page: str
    gate: str
    g: int
    n: int
    k: int
    grading_convention: str = "X"


@dataclass(frozen=True)
class E2Page:
    """Page two of the region computation.

    ``fixed`` is the part no later differential touches (X-convention
    grading).  ``d2_complex`` is the page-two differential over the model
    grading; its generators are the circle-summand generators that
    differential can move.
    """

    fixed: GradedGroup
    d2_complex: FreeComplex


# -- generic complex assembly -------------------------------------------


def _by_degree(gens: Iterable, grading: Callable) -> dict[int, list]:
    """Generators grouped by ``grading(gen)``, for ``_assemble_complex``."""
    by_degree: dict[int, list] = {}
    for gen in gens:
        by_degree.setdefault(grading(gen), []).append(gen)
    return by_degree


def _stray(target, deg: int, positions: dict[int, dict]) -> NotAComplex:
    """The refusal for an image term that is not a generator of degree deg - 1."""
    for tdeg, index in positions.items():
        if target in index:
            return NotAComplex(f"differential drops grading by {deg - tdeg}, not 1")
    return NotAComplex(f"differential leaves the generator set at degree {deg}")


def _assemble_complex(by_degree: dict[int, list], image: Callable) -> tuple[dict[int, int], dict[int, dict]]:
    """A complex's sizes and boundary columns, from generators grouped by degree and a differential rule.

    Each degree's list is sorted in place, and a generator's position in it
    is its index in the complex.  ``image(gen)`` returns a sequence of
    (target_generator, coefficient) pairs; targets must be generators of
    degree one less, or the assembly refuses.  Each generator's image is
    summed into its own column, keyed by target row, so only the nonzero
    part of each boundary is ever built.  The result is what ``FreeComplex``
    takes: a complex keeps each degree's count, not its generators, so
    ``by_degree`` is emptied once the columns are built.
    """
    positions: dict[int, dict] = {}
    for deg, gens in by_degree.items():
        gens.sort()
        positions[deg] = dict(zip(gens, range(len(gens))))
    boundaries: dict[int, dict[int, list[tuple[int, int]]]] = {}
    for deg, sources in by_degree.items():
        below = positions.get(deg - 1, {})
        columns = {}
        for col, gen in enumerate(sources):
            terms = image(gen)
            if not terms:
                continue
            if len(terms) == 1:
                # one term needs no summing
                (target, coeff), = terms
                row = below.get(target)
                if row is None:
                    raise _stray(target, deg, positions)
                columns[col] = [(row, coeff)]
                continue
            column: dict[int, int] = {}
            for target, coeff in terms:
                row = below.get(target)
                if row is None:
                    raise _stray(target, deg, positions)
                column[row] = column.get(row, 0) + coeff
            columns[col] = list(column.items())
        if columns:
            boundaries[deg] = columns
    sizes = {deg: len(gens) for deg, gens in by_degree.items()}
    # the complex keeps no generator: free the index and the lists before it is built
    del positions
    by_degree.clear()
    return sizes, boundaries


# -- the page-one differential -------------------------------------------


def _d1_image(
    mono: Monomial, u: int, genus: int, d: int, active_half: str, pd_sign: int
) -> list[tuple[Monomial, int, int]]:
    """Page-one differential on ``monomial (x) U^u`` with tower truncation.

    The two terms are contraction with the class dual to a1 (same U-power)
    and wedging with the Poincare dual b1 on the left (one higher U-power),
    both with the signs of the ``exterior`` kernel.  Only monomials in the
    active half move; the contraction term is dropped when the truncated
    tower has no room at the higher codegree (u + codegree exceeding
    d - 1), while the wedge term always fits.
    """
    if e_half(mono) != active_half:
        return []
    out: list[tuple[Monomial, int, int]] = []
    if 2 * genus - len(mono) + u <= d - 1 and (rest := contract_monomial(mono)) is not None:
        out.append((rest, u, 1))
    product = wedge_monomials((1,), mono)
    if product is not None:
        wedged, sign = product
        out.append((wedged, u + 1, pd_sign * sign))
    return out


def build_x_complex(genus: int, d: int, left: bool = False, pd_sign: int = 1) -> FreeComplex:
    """The truncated tower module X(g, d) as a complex under the page-one differential.

    Gradings are the module's own (X-convention).  ``left`` selects the
    left-handed-twist convention, which supports the differential on the
    other half of the exterior splitting.
    """
    if genus < 2:
        raise BadGenus(f"genus {genus} < 2")
    module = build_X(genus, d)
    half = "E+" if left else "E-"

    def image(x: XBasisElement):
        terms = _d1_image(x.monomial, x.u, genus, d, half, pd_sign)
        return [(XBasisElement(genus, mono, u), coeff) for mono, u, coeff in terms]

    return FreeComplex(*_assemble_complex(_by_degree(module.basis, lambda x: x.grading), image))


# -- region pipeline -------------------------------------------------------


def _circle_labels(spec: Params, labels: Sequence[int] | None) -> tuple[int, ...]:
    if labels is None:
        return tuple(range(1, spec.abs_n + 1))
    if sorted(labels) != sorted(set(labels)) or len(labels) != spec.abs_n:
        raise BadParams(f"need {spec.abs_n} distinct circle labels, got {labels!r}")
    return tuple(labels)


def _surface_generators(spec: Params) -> dict[int, list[tuple]]:
    """The surface generators, grouped by model degree F - 2p."""
    by_degree: dict[int, list[tuple]] = {}
    for size in range(spec.g + spec.abs_k + 1, 2 * spec.g + 1):
        F = size - spec.g
        monos = list(monomials(range(2 * spec.g), size))
        for p in range(1, F - spec.abs_k + 1):
            by_degree.setdefault(F - 2 * p, []).extend((SURFACE, mono, p, 0, 0) for mono in monos)
    return by_degree


def _circle_generators(spec: Params, labels: Sequence[int]) -> dict[int, list[tuple]]:
    """The circle generators on ``labels``, grouped by model degree F + eps + eps_n - 2p."""
    by_degree: dict[int, list[tuple]] = {}
    labels = sorted(labels)
    for size in range(spec.g + spec.abs_k, 2 * spec.g - 1):
        F = size - (spec.g - 1)
        monos = list(monomials(range(2, 2 * spec.g), size))
        for bit in (0, 1):
            for p in range(1, F - spec.abs_k + 1):
                # one (p, eps) per label size lands in this degree, so with the
                # label innermost the size adds one sorted run to the list
                deg = F + bit + spec.eps_n - 2 * p
                by_degree.setdefault(deg, []).extend(
                    (CIRCLES, mono, p, c, bit) for mono in monos for c in labels
                )
    return by_degree


def region_size(spec: Params) -> int:
    """The number of region generators, counted without enumerating them.

    A surface monomial with s symbols carries U-powers p = 1 .. s - g - |k|;
    a circle monomial with s symbols carries p = 1 .. s - g + 1 - |k| for
    each of the |n| circles and both values of eps.

    >>> region_size(Params(6, 3, 1)), region_size(Params(11, 3, 1))
    (2650, 5086660)
    """
    g, k = spec.g, spec.abs_k
    surface = sum(comb(2 * g, s) * (s - g - k) for s in range(g + k + 1, 2 * g + 1))
    circles = sum(comb(2 * g - 2, s) * (s - g + 1 - k) for s in range(g + k, 2 * g - 1))
    return surface + 2 * spec.abs_n * circles


def _check_tower(spec: Params, surface: dict[int, list[tuple]]) -> None:
    """Refuse a surface summand that is not the truncated tower X(g, d) in disguise.

    The surface generator (monomial, p) in model degree deg must be the
    tower element (monomial, u = p - 1) of grading deg + 2, and the two
    sets must agree in full.  Both key sets are freed on return, before
    the region is assembled.
    """
    found = {(mono, p - 1, deg) for deg, gens in surface.items() for _, mono, p, _, _ in gens}
    expected = {(x.monomial, x.u, x.grading - 2) for x in build_X(spec.g, spec.d).basis}
    if found != expected:
        raise GateFailure(f"region/tower basis mismatch at {spec}")


def build_e1_region(spec: Params, pd_sign: int = 1) -> FreeComplex:
    """Page one of the region {i < 0, j >= k}, over the model grading.

    Page one is the surface complex plus counted circle cycles.  SURFACE
    generators in the active half carry the page-one differential (with
    image terms leaving the region dropped), and only they are assembled.
    CIRCLES generators are cycles that no arrow hits: each degree's circles
    are counted and added to its size, after its surface generators, where
    no row or column refers to them.
    """
    # counted first, so the circle tuples are gone before the surface is enumerated
    circles = {deg: len(gens) for deg, gens in _circle_generators(spec, range(1, spec.abs_n + 1)).items()}
    surface = _surface_generators(spec)
    _check_tower(spec, surface)
    total = sum(circles.values()) + sum(map(len, surface.values()))
    expected_size = region_size(spec)
    if total != expected_size:
        raise GateFailure(f"region has {total} generators, but its count is {expected_size} at {spec}")

    g, d, half = spec.g, spec.d, active_half(spec.n)

    def image(gen: tuple):
        _, mono, p, _, _ = gen
        terms = _d1_image(mono, p - 1, g, d, half, pd_sign)
        return [((SURFACE, target, u + 1, 0, 0), coeff) for target, u, coeff in terms]

    sizes, columns = _assemble_complex(surface, image)
    for deg, count in circles.items():
        sizes[deg] = sizes.get(deg, 0) + count
    return FreeComplex(sizes, columns)


def _d2_image(spec: Params, gen: tuple) -> list[tuple[tuple, int]]:
    """The page-two arrow out of one circle generator, if its target is in the region."""
    tag, mono, p, c, bit = gen
    if bit == 0 and p + 1 <= len(mono) - (spec.g - 1) - spec.abs_k:
        return [((tag, mono, p + 1, c, 1), 1)]
    return []


def build_e2_symbolic(
    spec: Params,
    circle_labels: Sequence[int] | None = None,
    corrupt_d2: bool = False,
) -> E2Page:
    """Page two, assembled symbolically.

    The fixed part is the page-one homology of the surface summand together
    with one circle copy; the remaining ``|n| - 1`` circle copies stay
    subject to the page-two differential, which sends (label, c, eps=0, p)
    to (label, c, eps=1, p+1) whenever the target is still in the region.

    ``corrupt_d2`` (a test hook) drops every page-two arrow.
    """
    labels = _circle_labels(spec, circle_labels)
    g, d = spec.g, spec.d
    fixed = x_ranks(g - 1, d - 1).tensor(circles_cohomology(2, spec.eps_n))
    fixed += GradedGroup.free({g - d: comb(2 * g - 2, d)})
    image = (lambda gen: ()) if corrupt_d2 else (lambda gen: _d2_image(spec, gen))
    d2_complex = FreeComplex(*_assemble_complex(_circle_generators(spec, labels[1:]), image))
    return E2Page(fixed, d2_complex)


def _torsion_text(torsion: tuple[int, ...]) -> str:
    return "+".join(f"Z/{c}" for c in torsion) or "none"


def _degree_differences(computed: GradedGroup, symbolic: GradedGroup) -> str:
    """The degrees where two groups differ, each with both ranks and torsion."""
    return "; ".join(
        f"model degree {d}: computed rank {computed.rank(d)} torsion {_torsion_text(computed.torsion(d))}, "
        f"symbolic rank {symbolic.rank(d)} torsion {_torsion_text(symbolic.torsion(d))}"
        for d in sorted(set(computed.degrees()) | set(symbolic.degrees()))
        if (computed.rank(d), computed.torsion(d)) != (symbolic.rank(d), symbolic.torsion(d))
    )


def run_d1(spec: Params, page1: FreeComplex, e2: E2Page | None = None) -> HomologyResult:
    """Homology of page one, gated against the symbolic page two.

    The graded group computed by integer linear algebra must agree exactly
    (ranks and absence of torsion) with fixed + active of the symbolic page;
    any discrepancy aborts the run.
    """
    if e2 is None:
        e2 = build_e2_symbolic(spec)
    computed = page1.homology()
    expected = e2.fixed.shift(-2) + GradedGroup.free(e2.d2_complex.sizes)
    if computed != expected:
        raise GateFailure(
            f"page-one gate failed at g={spec.g} n={spec.n} k={spec.k}: "
            + _degree_differences(computed, expected)
        )
    return HomologyResult(
        computed.shift(2), "oracle", "E2", "passed", spec.g, spec.n, spec.k
    )


def run_d2(spec: Params, e2: E2Page) -> HomologyResult:
    """Homology of the page-two complex, plus the fixed part, in X-convention."""
    survivors = e2.d2_complex.homology()
    if not survivors.is_free():
        torsion = ", ".join(f"{d} ({_torsion_text(t)})" for d, _, t in survivors.entries if t)
        raise GateFailure(
            f"page-two homology has torsion at g={spec.g} n={spec.n} k={spec.k} in model degrees {torsion}"
        )
    group = e2.fixed + survivors.shift(2)
    return HomologyResult(group, "oracle", "final", "passed", spec.g, spec.n, spec.k)


def oracle_hfplus(
    g: int,
    n: int,
    k: int,
    pd_sign: int = 1,
    circle_labels: Sequence[int] | None = None,
    corrupt_d2: bool = False,
) -> HomologyResult:
    """Full region pipeline for the plus-flavor group at spin-c level k.

    The region depends on |k| only (conjugation invariance); the result
    reports k as given.  Levels with |k| >= g, where the group vanishes by
    adjunction, are refused: the region is empty there.  The result is
    torsion-free in the X-convention grading; torsion anywhere, a gate
    mismatch, or an Euler-characteristic drift is a hard failure.
    """
    spec = Params(g, n, k)
    if spec.vanishes_by_adjunction:
        raise BadParams(f"spin-c level |k|={spec.abs_k} exceeds g-1={g - 1}")
    # the labels reach page two only; refuse bad ones before either page is built
    labels = _circle_labels(spec, circle_labels)
    # The pages are tuples, lists and dicts of ints and form no reference
    # cycles, so the cyclic collector has nothing to find in them; paused,
    # it stops rescanning their containers as they are built.  They die
    # with _run_pages's frame, before the collector is back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run_pages(spec, pd_sign, labels, corrupt_d2)
    finally:
        if collecting:
            gc.enable()


def _run_pages(
    spec: Params, pd_sign: int, labels: tuple[int, ...], corrupt_d2: bool
) -> HomologyResult:
    """Build and reduce both pages, and check what comes out."""
    page1 = build_e1_region(spec, pd_sign)
    e2 = build_e2_symbolic(spec, labels, corrupt_d2)
    run_d1(spec, page1, e2)
    result = run_d2(spec, e2)
    where = f"at g={spec.g} n={spec.n} k={spec.k}"
    if not result.group.is_free():
        raise GateFailure(f"oracle output has torsion {where}")
    if page1.euler_characteristic() != result.group.euler_characteristic():
        raise GateFailure(f"Euler characteristic drifted through the pipeline {where}")
    return result


# -- knot Floer tables -----------------------------------------------------


@dataclass(frozen=True)
class FilteredGroup:
    """Graded groups indexed by an Alexander-style filtration level j."""

    levels: tuple[tuple[int, GradedGroup], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for j, group in self.levels:
            if prev is not None and j <= prev:
                raise ValueError("filtration levels must be strictly sorted")
            if group.is_zero():
                raise ValueError(f"zero group stored at level {j}")
            prev = j

    @classmethod
    def of(cls, data: dict[int, GradedGroup]) -> "FilteredGroup":
        return cls(tuple((j, data[j]) for j in sorted(data) if not data[j].is_zero()))

    def level(self, j: int) -> GradedGroup:
        for jj, group in self.levels:
            if jj == j:
                return group
        return GradedGroup.zero()

    def filtrations(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.levels)

    def flatten(self) -> GradedGroup:
        total = GradedGroup.zero()
        for _, group in self.levels:
            total += group
        return total

    def total_rank(self) -> int:
        return self.flatten().total_rank()

    def to_json_dict(self) -> dict:
        return {
            "filtration": [
                {"j": j, **group.to_json_dict()} for j, group in self.levels
            ]
        }


def hfk_M(n: int) -> FilteredGroup:
    """Knot Floer table of the core knot in the small summand, signed twist.

    The exterior algebra of a genus-1 surface (filtration = centered degree
    = grading) plus |n| circle classes in filtration 0, graded at {0,1} for
    right twists and {-1,0} for left twists.
    """
    eps_n = eps(n)
    levels = {
        1: GradedGroup.free({1: 1}),
        0: GradedGroup.free({0: 2}) + GradedGroup.free({eps_n: abs(n), eps_n + 1: abs(n)}),
        -1: GradedGroup.free({-1: 1}),
    }
    return FilteredGroup.of(levels)


def collapse_hfk(n: int) -> GradedGroup:
    """Hat-flavor group of the small summand from its knot Floer table.

    The only differential of the collapsing sequence is contraction on the
    active half of the genus-1 exterior factor (a surjection onto the unit
    for right twists, an injection out of the top class for left twists);
    the circle classes never move.
    """
    eps_n = eps(n)
    half = active_half(n)

    gens = [(SURFACE, mono, 0, 0, 0) for size in range(3) for mono in monomials(range(2), size)]
    gens += [(CIRCLES, (), 0, c, bit) for c in range(1, abs(n) + 1) for bit in (0, 1)]

    def grading(gen: tuple) -> int:
        tag, mono, _, _, bit = gen
        return len(mono) - 1 if tag == SURFACE else bit + eps_n

    def image(gen: tuple):
        tag, mono, _, _, _ = gen
        if tag != SURFACE or e_half(mono) != half:
            return ()
        rest = contract_monomial(mono)
        return () if rest is None else [((SURFACE, rest, 0, 0, 0), 1)]

    return FreeComplex(*_assemble_complex(_by_degree(gens, grading), image)).homology()


def hf_hat_M(n: int) -> GradedGroup:
    """Hat-flavor group of the small summand, signed twist."""
    if n == 0:
        raise ZeroTwist("twist power n must be nonzero")
    m = abs(n)
    if n > 0:
        return GradedGroup.free({1: m + 1, 0: m + 1})
    return GradedGroup.free({0: m + 1, -1: m + 1})


def hfplus_pretzel_surgery(n: int, top: int) -> GradedGroup:
    """Plus-flavor tower of the auxiliary +1-surgery piece, truncated.

    The honest gradings are half-integers k = m + 1/2; integer slot m
    encodes grading m + 1/2.  Rank n sits at the bottom slot and rank 1 at
    every slot above, ad infinitum; ``top`` is the inclusive truncation slot.
    """
    if n < 1:
        raise BadParams("the surgery table needs n >= 1")
    if top < 0:
        raise BadParams("truncation slot must be >= 0")
    ranks = {0: n}
    for slot in range(1, top + 1):
        ranks[slot] = 1
    return GradedGroup.free(ranks)


def hfplus_M(n: int, top: int) -> GradedGroup:
    """Plus-flavor tower of the small summand in its torsion spin-c structure, truncated."""
    if n < 1:
        raise BadParams("the tower table needs n >= 1")
    if top < 0:
        raise BadParams("truncation degree must be >= 0")
    ranks = {0: n + 1}
    for deg in range(1, top + 1):
        ranks[deg] = 2
    return GradedGroup.free(ranks)


def reference_tables(
    name: str, n: int, top: int | None = None
) -> GradedGroup | FilteredGroup:
    """Dispatch the bundled reference tables by name.

    hfk_* names return filtration-annotated tables; the others return plain
    graded groups.  ``top`` is required by the (infinite) tower tables.
    """
    if name == "hfk_M1":
        if abs(n) != 1:
            raise BadParams("hfk_M1 is the n = +/-1 table")
        return hfk_M(n)
    if name == "hfk_Mn":
        return hfk_M(n)
    if name == "hf_hat_Mn":
        return hf_hat_M(n)
    if name in ("hfplus_Z", "hfplus_Mn"):
        if top is None:
            raise BadParams(f"{name} is an infinite tower; a truncation top is required")
        return hfplus_pretzel_surgery(n, top) if name == "hfplus_Z" else hfplus_M(n, top)
    raise UnknownTable(name)
