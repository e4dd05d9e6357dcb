"""Knot-complex region pages for separating-twist mapping tori.

The mapping torus of the n-th power of a right-handed Dehn twist along a
genus-1 separating circle in a genus-g surface is 0-surgery on a knot in a
connected sum of a small Seifert-fibered piece with 2g-2 copies of
S^1 x S^2.  Its plus-flavor Floer group in the k-th nontorsion spin-c
structure is the homology of the region {i < 0, j >= k} of the associated
knot complex.  This module realizes that region explicitly: the page-one
differential (contraction plus wedge, supported on one half of the
splitting along the genus-1 block) is applied with region truncation, the
page-two differential moves the surviving circle summands, and nothing
differs after that.  Everything is computed over the integers; the
symbolic page-two bookkeeping is cross-checked against the computed
page-one homology by a rank gate that aborts the run on any discrepancy.

Gradings: every page is built in the symmetric-product ("X") grading the
results are reported in, under which comparisons to the closed form are
exact.  ``_surface_runs`` and ``_circle_runs`` write each run's degree, and
nothing shifts it afterwards: a surface generator (monomial, p) sits where
the tower element (monomial, U^(p-1)) of X(g, d) does.

No generator is ever built: each degree is a fixed sequence of runs, and a
page's runs are all of one kind.  A run ``(size, p, eps)`` is every
monomial of one size at one U-power p >= 1 (column i = -p): on X(g, d)
the genus-g monomials, with eps = 0, and on a circle label the genus-(g-1)
monomials (symbols 2..2g-1) at cohomological bit eps.  A degree's runs sit
back to back.  The page names its runs' blocks: inside a surface run the
monomials fall into the four ``BLOCKS`` by their {a1, b1} part, in the
order none, a1, b1, both, and a circle run is one block, the none block
(``CIRCLE_BLOCKS``); inside a block a monomial's index is the colex rank
of the rest over symbols 2..2g-1 (the combinatorial number system, Knuth
TAOCP 4A 7.2.1.3).  Contraction drops a1, wedging adds b1 and the page-two
arrow keeps the monomial, so neither changes: every block of a boundary is
one strip, a signed, shifted identity onto a block of the degree below.
One builder, ``_ranked_page``, turns runs into strips for X(g, d) and for
one circle label; ``_d1_image`` and ``_d2_image`` stay the only
definitions of the two differentials, each asked of a block's first and
last generators and answering in the page's runs.  A page costs time in
its runs, not in its generators.

The surface summand of the region at level k is the truncated tower
X(g, d), d = g - 1 - |k|, and ``build_x_complex`` is its one builder: its
runs pass the tower check, which compares their shapes with X(g, d)'s.  It
depends on (g, |k|, handedness) only (``surface_key``), and so does one
circle label's page-two complex: with them it makes one ``SurfacePage``,
which a sweep builds once and hands to every triple that shares it.  Page
one is that surface complex plus |n| times the circle generators as
counted cycles, after the surface runs; page two is |n| - 1 copies of the
circle complex (``FreeComplex.copies``), which is ranked only once a
triple with |n| >= 2 asks for it.
"""

from __future__ import annotations

import functools
import gc
from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from .errors import BadGenus, BadParams, GateFailure, NotAComplex, UnknownTable, ZeroTwist
from .exterior import (
    Monomial,
    XBasisElement,
    check_x_params,
    contract_monomial,
    e_half,
    wedge_monomials,
    x_ranks,
)
from .graded import GradedGroup, circles_cohomology
from .homology import FreeComplex
from .params import Params, eps


def active_half(left: bool) -> str:
    """Half of the exterior splitting the page-one differential acts on, for a left or a right twist."""
    return "E+" if left else "E-"


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


@dataclass(frozen=True)
class E2Page:
    """Page two of the region computation.

    ``fixed`` is the part no later differential touches.  ``d2_complex``
    is the page-two differential; its generators are the circle-summand
    generators that differential can move.
    """

    fixed: GradedGroup
    d2_complex: FreeComplex


@dataclass(frozen=True)
class SurfacePage:
    """What both pages take from one ``surface_key``: the surface summand and one circle label's page.

    ``complex`` is X(g, d) from ``build_x_complex``, checked; page one
    widens it by |n| times ``circle_sizes``, the circle count per degree
    (``FreeComplex.with_cycles``).  ``circles`` is the circle runs under
    the page-two differential, checked; every label has those runs, and
    page two is |n| - 1 copies of it (``FreeComplex.copies``).  It is
    ranked when a triple with |n| >= 2 first asks for it, for ``spec``,
    the triple the page was built for, and kept for the rest of the
    group.  Each complex's invariant factors are worked out once.
    ``below`` is x_ranks(g - 1, d - 1), for page two's fixed part.
    """

    complex: FreeComplex
    circle_sizes: dict[int, int]
    below: GradedGroup
    spec: Params

    @functools.cached_property
    def circles(self) -> FreeComplex:
        return _circle_page(self.spec)


# -- runs and ranks --------------------------------------------------------

# The {a1, b1} part of a surface monomial, in the order its blocks take in a run.
BLOCKS: tuple[Monomial, ...] = ((), (0,), (1,), (0, 1))
# A circle monomial holds neither a1 nor b1: a circle run is one block, the none block.
CIRCLE_BLOCKS: tuple[Monomial, ...] = ((),)


def _surface_runs(genus: int, k: int) -> dict[int, list[tuple]]:
    """The surface runs of the region {i < 0, j >= k}, grouped by degree F - 2(p - 1).

    A run ``(size, p, 0)`` is every genus-``genus`` monomial of one size s
    at one U-power p; F = s - genus, and p runs over 1 .. F - k.  Its
    degree is the grading of the tower element (monomial, U^(p-1)).
    """
    by_degree: dict[int, list[tuple]] = {}
    for size in range(max(genus + k + 1, 0), 2 * genus + 1):
        F = size - genus
        for p in range(1, F - k + 1):
            by_degree.setdefault(F - 2 * (p - 1), []).append((size, p, 0))
    return by_degree


def _circle_runs(spec: Params) -> dict[int, list[tuple]]:
    """The circle runs of one label, grouped by degree F + eps + eps_n - 2(p - 1).

    A run ``(size, p, eps)`` is every genus-(g-1) monomial (symbol indices
    2..2g-1) of one size s at one U-power and eps; F = s - (g - 1), and p
    runs over 1 .. F - |k|.  Every label has these runs.
    """
    by_degree: dict[int, list[tuple]] = {}
    for size in range(spec.g + spec.abs_k, 2 * spec.g - 1):
        F = size - (spec.g - 1)
        for bit in (0, 1):
            for p in range(1, F - spec.abs_k + 1):
                deg = F + bit + spec.eps_n - 2 * (p - 1)
                by_degree.setdefault(deg, []).append((size, p, bit))
    return by_degree


@functools.cache
def _run_blocks(genus: int, blocks: tuple[Monomial, ...], size: int) -> tuple[dict[Monomial, tuple[int, int]], int]:
    """A run of one size on a page of ``blocks``: ({block: (start, length)} in run order, the run's length).

    A block's rest is C(2g - 2, s - |block|) monomials, so a surface run
    holds C(2g, s) (Vandermonde's identity) and a circle run C(2g - 2, s).
    Every run of a shape asks for the same blocks, so they are kept.
    """
    starts, start = {}, 0
    for block in blocks:
        rest = size - len(block)
        starts[block] = (start, comb(2 * genus - 2, rest) if rest >= 0 else 0)
        start += starts[block][1]
    return starts, start


def _layout(
    genus: int, blocks: tuple[Monomial, ...], runs: dict[int, list[tuple]]
) -> tuple[dict[int, int], dict[tuple, tuple[int, int]]]:
    """Each degree's size and each run's (degree, offset): a degree's runs sit back to back, as listed."""
    sizes: dict[int, int] = {}
    where: dict[tuple, tuple[int, int]] = {}
    for deg, listed in runs.items():
        offset = 0
        for run in listed:
            where[run] = (deg, offset)
            offset += _run_blocks(genus, blocks, run[0])[1]
        sizes[deg] = offset
    return sizes, where


def _split(mono: Monomial) -> tuple[Monomial, Monomial]:
    """A monomial as (its {a1, b1} block, the rest over symbols 2..2g-1)."""
    cut = bisect_left(mono, 2)
    return mono[:cut], mono[cut:]


# the differential on one generator (monomial) of a run, as (target run,
# target monomial, coefficient) terms
Image = Callable[[tuple, Monomial], list[tuple[tuple, Monomial, int]]]


def _ranked_page(
    genus: int, blocks: tuple[Monomial, ...], runs: dict[int, list[tuple]], image: Image
) -> tuple[dict[int, int], dict[int, list]]:
    """The sizes and boundary strips of a page of runs of ``blocks``, each degree as the runs are grouped.

    ``image`` is asked of each nonempty block's first and last generators.
    Neither page differential changes the rest, so each term names a target
    block, and the whole source block maps onto it at the same rank: one
    strip per block.  A term outside the runs of the degree below is
    refused, and so are a term that changes the rest and a last generator
    whose image differs from the first's.
    """
    sizes, where = _layout(genus, blocks, runs)

    def targets(deg: int, run: tuple, block: Monomial, rest: Monomial) -> list[tuple[int, int]]:
        """Where ``image`` sends the generator block + rest: (start of its target block, coefficient) pairs."""
        rows: dict[int, int] = {}
        for target_run, target, coeff in image(run, block + rest):
            target_block, target_rest = _split(target)
            starts = _run_blocks(genus, blocks, target_run[0])[0]
            if target_rest != rest or target_block not in starts:
                raise NotAComplex(f"differential at degree {deg} sends {block + rest} to {target}, "
                                  "which changes the rest: not a shifted identity")
            tdeg, start = where.get(target_run, (None, 0))
            if tdeg is None:
                raise NotAComplex(f"differential leaves the generator set at degree {deg}")
            if tdeg != deg - 1:
                raise NotAComplex(f"differential drops grading by {deg - tdeg}, not 1")
            row = start + starts[target_block][0]
            rows[row] = rows.get(row, 0) + coeff
        return [(row, coeff) for row, coeff in rows.items() if coeff]

    symbols = tuple(range(2 * genus))  # sliced, so the monomials share one set of ints
    boundaries: dict[int, list] = {}
    for deg, listed in runs.items():
        strips = []
        for run in listed:
            offset = where[run][1]
            for block, (start, length) in _run_blocks(genus, blocks, run[0])[0].items():
                if not length:
                    continue
                rest = run[0] - len(block)
                first, last = symbols[2 : 2 + rest], symbols[2 * genus - rest :]
                hit = targets(deg, run, block, first)
                if length > 1 and targets(deg, run, block, last) != hit:
                    raise NotAComplex(
                        f"differential at degree {deg} sends {block + last} elsewhere than {block + first}: "
                        "not a shifted identity"
                    )
                if hit:
                    strips.append((offset + start, length, hit))
        if strips:
            boundaries[deg] = strips
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


def _check_tower(genus: int, d: int, surface: dict[int, list[tuple]]) -> None:
    """Refuse surface runs that are not the truncated tower X(g, d) in disguise.

    The surface generator (monomial, p) in degree deg must be the tower
    element (monomial, u = p - 1), of grading deg.  Each run's degree is
    checked against the tower grading.  A run holds every monomial of its
    size, and so does X(g, d) at each codegree i <= d, with u = 0 .. d - i;
    so the runs are the tower exactly when they have the sizes 2g - i and,
    at each, the U-powers p = 1 .. d - i + 1, each once.  That compares run
    shapes only: no monomial is enumerated.
    """
    mismatch = GateFailure(f"region/tower basis mismatch at g={genus} d={d}")
    powers: dict[int, list[int]] = {}
    symbols = tuple(range(2 * genus))  # sliced for each run's grading, never rebuilt
    for deg, runs in surface.items():
        for size, p, _ in runs:
            if XBasisElement(genus, symbols[:size], p - 1).grading != deg:
                raise mismatch
            powers.setdefault(size, []).append(p)
    tower = {2 * genus - i: list(range(1, d - i + 2)) for i in range(min(d, 2 * genus) + 1)}
    if {size: sorted(ps) for size, ps in powers.items()} != tower:
        raise mismatch


def build_x_complex(genus: int, d: int, left: bool = False, pd_sign: int = 1) -> FreeComplex:
    """The truncated tower module X(g, d) as a complex under the page-one differential.

    X(g, d) is the surface summand of the region at level k = g - 1 - d:
    its surface runs, once they pass the tower check, are ranked under
    ``_d1_image``, where contraction drops a1 and wedging adds b1.  ``left``
    selects the left-handed-twist convention, which supports the
    differential on the other half of the exterior splitting.
    """
    if genus < 2:
        raise BadGenus(f"genus {genus} < 2")
    check_x_params(genus, d)
    runs = _surface_runs(genus, genus - 1 - d)
    _check_tower(genus, d, runs)
    half = active_half(left)

    def image(run: tuple, mono: Monomial) -> list[tuple[tuple, Monomial, int]]:
        return [
            ((len(target), u + 1, 0), target, coeff)
            for target, u, coeff in _d1_image(mono, run[1] - 1, genus, d, half, pd_sign)
        ]

    sizes, strips = _ranked_page(genus, BLOCKS, runs, image)
    del runs  # not held while the complex checks its strips: at g = 446 the runs take 9 MB
    return FreeComplex(sizes, strips)


# -- region pipeline -------------------------------------------------------


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


def x_run_count(d: int) -> int:
    """The number of runs of X(g, d) for d <= 2g: one per codegree i <= d and U-power u <= d - i.

    >>> x_run_count(-1), x_run_count(0), x_run_count(2)
    (0, 1, 6)
    """
    return (d + 1) * (d + 2) // 2


def run_count(d: int) -> int:
    """The number of runs the surface page at depth d = g - 1 - |k| builds, without listing them.

    The surface is X(g, d); with m = g - |k| = d + 1, one circle label has
    m(m - 1) runs, one per size, U-power and eps: the count depends on
    neither n nor g apart from d.

    >>> run_count(8), run_count(28), run_count(198)
    (117, 1247, 59302)
    """
    m = d + 1
    return x_run_count(d) + m * (m - 1)


def surface_key(spec: Params) -> tuple[int, int, bool]:
    """What the surface page of ``spec`` depends on: g, |k| and the twist's handedness."""
    return spec.g, spec.abs_k, spec.n > 0


def _d2_image(spec: Params, run: tuple, mono: Monomial) -> list[tuple[tuple, Monomial, int]]:
    """The page-two arrow out of the circle generator ``mono`` of ``run``, if its target is in the region."""
    _, p, bit = run
    if bit == 0 and p + 1 <= len(mono) - (spec.g - 1) - spec.abs_k:
        return [((len(mono), p + 1, 1), mono, 1)]
    return []


def _circle_page(spec: Params) -> FreeComplex:
    """The circle runs under ``_d2_image``: one label's page two, which every label copies."""
    return FreeComplex(*_ranked_page(spec.g, CIRCLE_BLOCKS, _circle_runs(spec), functools.partial(_d2_image, spec)))


def build_surface_page(spec: Params, pd_sign: int = 1) -> SurfacePage:
    """The surface summand's page and one circle label's counts, shared by every triple of ``surface_key(spec)``.

    The surface summand is X(g, d), on the half of a left twist when n < 0.
    The circle counts come from the run layout; the label's page-two
    complex is ranked only when a triple first asks for ``circles``.
    """
    x_complex = build_x_complex(spec.g, spec.d, left=spec.n < 0, pd_sign=pd_sign)
    circle_sizes = _layout(spec.g, CIRCLE_BLOCKS, _circle_runs(spec))[0]
    return SurfacePage(x_complex, circle_sizes, x_ranks(spec.g - 1, spec.d - 1), spec)


def build_e1_region(spec: Params, surface: SurfacePage | None = None) -> FreeComplex:
    """Page one of the region {i < 0, j >= k}.

    Page one is the surface complex plus counted circle cycles.  Surface
    generators in the active half carry the page-one differential (with
    image terms leaving the region dropped), and only they get strips.
    Circle generators are cycles that no arrow hits: each degree gets |n|
    times one label's circle count, after its surface runs, where no strip
    reaches them.  ``surface`` is the page of ``surface_key(spec)``, built
    here when not given.
    """
    if surface is None:
        surface = build_surface_page(spec)
    circles = {deg: spec.abs_n * count for deg, count in surface.circle_sizes.items()}
    total = surface.complex.total_size() + sum(circles.values())
    expected_size = region_size(spec)
    if total != expected_size:
        raise GateFailure(f"region has {total} generators, but its count is {expected_size} at {spec}")
    return surface.complex.with_cycles(circles)


def _fixed_part(spec: Params, below: GradedGroup) -> GradedGroup:
    """Page two's fixed part from ``below`` = x_ranks(g - 1, d - 1): the surface summand with one circle copy.

    The copy sits at this triple's eps: a page handed across handedness fails the page-one gate.
    """
    fixed = below.tensor(circles_cohomology(2, spec.eps_n))
    return fixed + GradedGroup.free({spec.g - spec.d: comb(2 * spec.g - 2, spec.d)})


def build_e2_symbolic(spec: Params, corrupt_d2: bool = False, surface: SurfacePage | None = None) -> E2Page:
    """Page two, assembled symbolically.

    The fixed part is the page-one homology of the surface summand together
    with one circle copy; the remaining ``|n| - 1`` circle copies stay
    subject to the page-two differential, which sends (c, eps=0, p) to
    (c, eps=1, p+1) on the same label whenever the target is still in the
    region: |n| - 1 copies of ``surface.circles``, one per label after the
    first.
    ``surface`` is the page of ``surface_key(spec)``, built when not given.

    ``corrupt_d2`` (a test hook) drops every page-two arrow.
    """
    if surface is None:
        surface = build_surface_page(spec)
    # |n| = 1 has no copy, and never ranks the circle page
    active = surface.circles.copies(spec.abs_n - 1) if spec.abs_n > 1 else FreeComplex({})
    return E2Page(_fixed_part(spec, surface.below), FreeComplex(active.sizes) if corrupt_d2 else active)


def _torsion_text(torsion: tuple[int, ...]) -> str:
    return "+".join(f"Z/{c}" for c in torsion) or "none"


def _degree_differences(computed: GradedGroup, symbolic: GradedGroup) -> str:
    """The degrees where two groups differ, each with both ranks and torsion."""
    return "; ".join(
        f"degree {d}: computed rank {computed.rank(d)} torsion {_torsion_text(computed.torsion(d))}, "
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
    expected = e2.fixed + GradedGroup.free(e2.d2_complex.sizes)
    if computed != expected:
        raise GateFailure(
            f"page-one gate failed at g={spec.g} n={spec.n} k={spec.k}: "
            + _degree_differences(computed, expected)
        )
    return HomologyResult(computed, "oracle", "E2", "passed", spec.g, spec.n, spec.k)


def run_d2(spec: Params, e2: E2Page) -> HomologyResult:
    """Homology of the page-two complex, plus the fixed part."""
    survivors = e2.d2_complex.homology()
    if not survivors.is_free():
        torsion = ", ".join(f"{d} ({_torsion_text(t)})" for d, _, t in survivors.entries if t)
        raise GateFailure(
            f"page-two homology has torsion at g={spec.g} n={spec.n} k={spec.k} in degrees {torsion}"
        )
    return HomologyResult(e2.fixed + survivors, "oracle", "final", "passed", spec.g, spec.n, spec.k)


def oracle_hfplus(
    g: int,
    n: int,
    k: int,
    pd_sign: int = 1,
    circle_labels: Sequence[int] | None = None,
    corrupt_d2: bool = False,
    shared: dict[tuple, SurfacePage] | None = None,
) -> HomologyResult:
    """Full region pipeline for the plus-flavor group at spin-c level k.

    The region depends on |k| only (conjugation invariance); the result
    reports k as given.  Levels with |k| >= g, where the group vanishes by
    adjunction, are refused: the region is empty there.  The result is
    torsion-free; torsion anywhere, a gate mismatch, or an
    Euler-characteristic drift is a hard failure.

    ``shared`` is a dict the caller keeps across calls with one
    ``pd_sign``: the surface page is taken from it by ``surface_key``, or
    built and put in it.  Without it, every page is built here.
    ``circle_labels``, |n| distinct values, are checked, and reach nothing
    else: page two is |n| - 1 copies of one label's page, whichever labels
    they carry; ``None`` means 1 .. |n|, never listed.
    """
    spec = Params(g, n, k)
    if spec.vanishes_by_adjunction:
        raise BadParams(f"spin-c level |k|={spec.abs_k} exceeds g-1={g - 1}")
    if circle_labels is not None and not len(set(circle_labels)) == len(circle_labels) == spec.abs_n:
        raise BadParams(f"need {spec.abs_n} distinct circle labels, got {circle_labels!r}")
    shared = {} if shared is None else shared
    # The pages are tuples, lists and dicts of ints and form no reference
    # cycles, so the cyclic collector has nothing to find in them; paused,
    # it stops rescanning their containers as they are built.  They die
    # with this frame or with ``shared``, and form no cycle there.
    collecting = gc.isenabled()
    gc.disable()
    try:
        key = surface_key(spec)
        if key not in shared:
            shared[key] = build_surface_page(spec, pd_sign)
        page1 = build_e1_region(spec, shared[key])
        e2 = build_e2_symbolic(spec, corrupt_d2, shared[key])
        run_d1(spec, page1, e2)
        result = run_d2(spec, e2)
    finally:
        if collecting:
            gc.enable()
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
    half = active_half(n < 0)
    # the circle classes first, then the genus-1 monomials, which are the blocks
    sizes = {eps_n: abs(n), eps_n + 1: abs(n)}
    index: dict[Monomial, int] = {}
    for mono in BLOCKS:
        deg = len(mono) - 1
        index[mono] = sizes.get(deg, 0)
        sizes[deg] = index[mono] + 1
    strips: dict[int, list] = {}
    for mono in BLOCKS:
        rest = contract_monomial(mono)
        if e_half(mono) == half and rest is not None:
            strips.setdefault(len(mono) - 1, []).append((index[mono], 1, [(index[rest], 1)]))
    return FreeComplex(sizes, strips).homology()


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
