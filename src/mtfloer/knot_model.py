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

No generator is ever built: each degree is a fixed sequence of runs.  A
SURFACE run ``(SURFACE, size, p, (0,), 0)`` is every genus-g monomial of
one size at one U-power p >= 1 (column i = -p); a CIRCLES run ``(CIRCLES,
size, p, labels, eps)`` is every genus-(g-1) monomial (symbols 2..2g-1) of
one size at one U-power and cohomological bit eps, once for each circle
label in turn.  A degree's runs sit back to back.  Inside a surface run
the monomials fall into four blocks by their {a1, b1} part, in the order
none, a1, b1, both, and inside a block a monomial's index is the colex
rank of the rest over symbols 2..2g-1 (the combinatorial number system,
Knuth TAOCP 4A 7.2.1.3); a circle run is one block, the none block of
each label, back to back.  Contraction drops a1, wedging adds b1 and the
page-two arrow keeps the monomial and the label, so neither changes:
every block of a boundary is one strip, a signed, shifted identity onto a
block of the degree below.  One builder, ``_ranked_page``, turns runs
into strips for page one, page two and X(g, d); ``_d1_image`` and
``_d2_image`` stay the only definitions of the two differentials, each
asked of a block's first and last generators.  A page costs time in its
runs, not in its generators.

The surface summand of the region at level k is the truncated tower
X(g, d), d = g - 1 - |k|, and ``build_x_complex`` is its one builder: its
runs pass the tower check, which compares their shapes with X(g, d)'s.  It
depends on (g, |k|, handedness) only (``surface_key``): that complex, its
invariant factors and page two's fixed part make one ``SurfacePage``, which
a sweep builds once and hands to every triple that shares it.  Page one is
that surface complex plus the circle generators, which no arrow leaves or
hits: counted cycles, one count per degree, after the surface runs.
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

SURFACE = "surface"
CIRCLES = "circles"
# a surface run is one copy, labelled 0: no circle
SURFACE_LABELS = (0,)


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
    """What both pages take from the surface summand, for one ``surface_key``.

    ``complex`` is the surface summand under the page-one differential,
    X(g, d) from ``build_x_complex`` with its tower, range and d^2 = 0
    checks done; page one widens it by the circle counts
    (``FreeComplex.with_cycles``), so every page one built on it shares one
    computation of its invariant factors.  ``fixed`` is page two's fixed
    part.
    """

    complex: FreeComplex
    fixed: GradedGroup


# -- runs and ranks --------------------------------------------------------

# The {a1, b1} part of a surface monomial, in the order its blocks take in a run.
BLOCKS: tuple[Monomial, ...] = ((), (0,), (1,), (0, 1))


def _surface_runs(genus: int, k: int) -> dict[int, list[tuple]]:
    """The surface runs of the region {i < 0, j >= k}, grouped by degree F - 2(p - 1).

    A run ``(SURFACE, size, p, (0,), 0)`` is every genus-``genus`` monomial
    of one size s at one U-power p; F = s - genus, and p runs over 1 .. F - k.
    Its degree is the grading of the tower element (monomial, U^(p-1)).
    """
    by_degree: dict[int, list[tuple]] = {}
    for size in range(max(genus + k + 1, 0), 2 * genus + 1):
        F = size - genus
        for p in range(1, F - k + 1):
            by_degree.setdefault(F - 2 * (p - 1), []).append((SURFACE, size, p, SURFACE_LABELS, 0))
    return by_degree


def _circle_runs(spec: Params, labels: Sequence[int]) -> dict[int, list[tuple]]:
    """The circle runs on ``labels``, grouped by degree F + eps + eps_n - 2(p - 1).

    A run ``(CIRCLES, size, p, labels, eps)`` is every genus-(g-1) monomial
    (symbol indices 2..2g-1) of one size s at one U-power and eps, once for
    each label in turn; F = s - (g - 1), and p runs over 1 .. F - |k|.
    With no label there is no run.
    """
    by_degree: dict[int, list[tuple]] = {}
    if not labels:
        return by_degree
    for size in range(spec.g + spec.abs_k, 2 * spec.g - 1):
        F = size - (spec.g - 1)
        for bit in (0, 1):
            for p in range(1, F - spec.abs_k + 1):
                deg = F + bit + spec.eps_n - 2 * (p - 1)
                by_degree.setdefault(deg, []).append((CIRCLES, size, p, labels, bit))
    return by_degree


@functools.cache
def _run_blocks(genus: int, tag: str, size: int) -> dict[Monomial, tuple[int, int]]:
    """The blocks of one label's copy of a run of one tag and size, in run order: {block: (start, length)}.

    A surface run has the four ``BLOCKS``; a circle run, whose monomials
    hold neither a1 nor b1, is one block ``()`` of length C(2g - 2, s) for
    each label.  Every run of a shape asks for the same blocks, so they are
    kept.
    """
    blocks, start = {}, 0
    for block in BLOCKS if tag == SURFACE else BLOCKS[:1]:
        rest = size - len(block)
        blocks[block] = (start, comb(2 * genus - 2, rest) if rest >= 0 else 0)
        start += blocks[block][1]
    return blocks


def _run_length(genus: int, run: tuple) -> int:
    """The number of generators in a run: C(2g, s) on the surface, C(2g - 2, s) per label on the circles."""
    return len(run[3]) * comb(2 * genus if run[0] == SURFACE else 2 * genus - 2, run[1])


def _layout(genus: int, runs: dict[int, list[tuple]]) -> tuple[dict[int, int], dict[tuple, tuple[int, int]]]:
    """Each degree's size and each run's (degree, offset): a degree's runs sit back to back, as listed."""
    sizes: dict[int, int] = {}
    where: dict[tuple, tuple[int, int]] = {}
    for deg, listed in runs.items():
        offset = 0
        for run in listed:
            where[run] = (deg, offset)
            offset += _run_length(genus, run)
        sizes[deg] = offset
    return sizes, where


def _split(mono: Monomial) -> tuple[Monomial, Monomial]:
    """A monomial as (its {a1, b1} block, the rest over symbols 2..2g-1)."""
    cut = bisect_left(mono, 2)
    return mono[:cut], mono[cut:]


def _target_start(where: dict[tuple, tuple[int, int]], run: tuple, deg: int) -> int:
    """Where the target run of an arrow out of degree ``deg`` starts, or the refusal if it is not in degree deg - 1."""
    found = where.get(run)
    if found is None:
        raise NotAComplex(f"differential leaves the generator set at degree {deg}")
    tdeg, start = found
    if tdeg != deg - 1:
        raise NotAComplex(f"differential drops grading by {deg - tdeg}, not 1")
    return start


# the differential on one generator (label, monomial) of a run, as
# (target run, target label, target monomial, coefficient) terms
Image = Callable[[tuple, int, Monomial], list[tuple[tuple, int, Monomial, int]]]


def _ranked_page(genus: int, runs: dict[int, list[tuple]], image: Image) -> tuple[dict[int, int], dict[int, list]]:
    """The sizes and boundary strips of a page of runs, each degree as the runs are grouped.

    ``image`` is asked of each nonempty block's first and last generators:
    the first monomial of the run's first label and the last monomial of
    its last.  Neither page differential changes the rest or the label, so
    each term names a target block of a run on the same labels, and the
    whole source block maps onto it at the same rank: one strip per block.
    A circle run is one block per label, back to back, so its strip spans
    every label.  A term outside the runs of the degree below is refused,
    and so are a term that changes the rest or the label and a last
    generator whose image differs from the first's.
    """
    sizes, where = _layout(genus, runs)

    def targets(deg: int, run: tuple, label: int, block: Monomial, rest: Monomial) -> list[tuple[int, int]]:
        """Where ``image`` sends the generator (label, block + rest): (start of its target block, coefficient) pairs."""
        rows: dict[int, int] = {}
        for target_run, target_label, target, coeff in image(run, label, block + rest):
            target_block, target_rest = _split(target)
            blocks = _run_blocks(genus, target_run[0], target_run[1])
            if target_rest != rest or target_block not in blocks:
                raise NotAComplex(f"differential at degree {deg} sends {block + rest} to {target}, "
                                  "which changes the rest: not a shifted identity")
            if target_label != label or target_run[3] != run[3]:
                raise NotAComplex(f"differential at degree {deg} sends {block + rest} on label {label} to label "
                                  f"{target_label}, which changes the label: not a shifted identity")
            row = _target_start(where, target_run, deg) + blocks[target_block][0]
            rows[row] = rows.get(row, 0) + coeff
        return [(row, coeff) for row, coeff in rows.items() if coeff]

    symbols = tuple(range(2 * genus))  # sliced, so the monomials share one set of ints
    boundaries: dict[int, list] = {}
    for deg, listed in runs.items():
        strips = []
        for run in listed:
            offset, labels = where[run][1], run[3]
            for block, (start, length) in _run_blocks(genus, run[0], run[1]).items():
                if not length:
                    continue
                rest = run[1] - len(block)
                first, last = symbols[2 : 2 + rest], symbols[2 * genus - rest :]
                hit = targets(deg, run, labels[0], block, first)
                length *= len(labels)  # only a circle run, one block, has more than one label
                if length > 1 and targets(deg, run, labels[-1], block, last) != hit:
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
        for _, size, p, _, _ in runs:
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

    def image(run: tuple, label: int, mono: Monomial) -> list[tuple[tuple, int, Monomial, int]]:
        return [
            ((SURFACE, len(target), u + 1, SURFACE_LABELS, 0), label, target, coeff)
            for target, u, coeff in _d1_image(mono, run[2] - 1, genus, d, half, pd_sign)
        ]

    sizes, strips = _ranked_page(genus, runs, image)
    del runs  # not held while the complex checks its strips: at g = 446 the runs take 9 MB
    return FreeComplex(sizes, strips)


# -- region pipeline -------------------------------------------------------


def _circle_labels(spec: Params, labels: Sequence[int] | None) -> Sequence[int]:
    default = range(1, spec.abs_n + 1)  # kept a range: a level with no circle run never lists the labels
    if labels is None or labels == default:
        return default
    if sorted(labels) != sorted(set(labels)) or len(labels) != spec.abs_n:
        raise BadParams(f"need {spec.abs_n} distinct circle labels, got {labels!r}")
    return tuple(labels)


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


def run_count(spec: Params) -> int:
    """The number of page-one runs, without listing them.

    With m = g - |k|, the surface has m(m + 1)/2 runs, one per size and
    U-power, and the circles have m(m - 1), one per size, U-power and eps;
    a circle run holds every label, so the count does not depend on n.

    >>> run_count(Params(10, 3000, 1)), run_count(Params(30, -300, 1)), run_count(Params(200, 3, 1))
    (117, 1247, 59302)
    """
    m = spec.g - spec.abs_k
    return m * (m + 1) // 2 + m * (m - 1)


def surface_key(spec: Params) -> tuple[int, int, bool]:
    """What the surface page of ``spec`` depends on: g, |k| and the twist's handedness."""
    return spec.g, spec.abs_k, spec.n > 0


def build_surface_page(spec: Params, pd_sign: int = 1) -> SurfacePage:
    """The surface summand's page and page two's fixed part, shared by every triple of ``surface_key(spec)``.

    The surface summand is X(g, d), on the half of a left twist when n < 0.
    """
    return SurfacePage(build_x_complex(spec.g, spec.d, left=spec.n < 0, pd_sign=pd_sign), _fixed_part(spec))


def build_e1_region(spec: Params, pd_sign: int = 1, surface: SurfacePage | None = None) -> FreeComplex:
    """Page one of the region {i < 0, j >= k}.

    Page one is the surface complex plus counted circle cycles.  Each degree
    lists its surface runs, then its circle runs.  SURFACE generators in the
    active half carry the page-one differential (with image terms leaving
    the region dropped), and only they get strips.  CIRCLES generators are
    cycles that no arrow hits: each degree's circle runs are counted and
    added to its size, after its surface runs, where no strip reaches
    them.  ``surface`` is the page of ``surface_key(spec)``, built here
    when not given.
    """
    if surface is None:
        surface = build_surface_page(spec, pd_sign)
    circles = _layout(spec.g, _circle_runs(spec, range(1, spec.abs_n + 1)))[0]
    total = surface.complex.total_size() + sum(circles.values())
    expected_size = region_size(spec)
    if total != expected_size:
        raise GateFailure(f"region has {total} generators, but its count is {expected_size} at {spec}")
    return surface.complex.with_cycles(circles)


def _d2_image(spec: Params, gen: tuple) -> list[tuple[tuple, int]]:
    """The page-two arrow out of one circle generator, if its target is in the region."""
    tag, mono, p, c, bit = gen
    if bit == 0 and p + 1 <= len(mono) - (spec.g - 1) - spec.abs_k:
        return [((tag, mono, p + 1, c, 1), 1)]
    return []


def _fixed_part(spec: Params) -> GradedGroup:
    """Page two's fixed part: the page-one homology of the surface summand with one circle copy."""
    g, d = spec.g, spec.d
    fixed = x_ranks(g - 1, d - 1).tensor(circles_cohomology(2, spec.eps_n))
    return fixed + GradedGroup.free({g - d: comb(2 * g - 2, d)})


def build_e2_symbolic(
    spec: Params,
    circle_labels: Sequence[int] | None = None,
    corrupt_d2: bool = False,
    surface: SurfacePage | None = None,
) -> E2Page:
    """Page two, assembled symbolically.

    The fixed part is the page-one homology of the surface summand together
    with one circle copy, taken from ``surface`` when given; the remaining
    ``|n| - 1`` circle copies stay subject to the page-two differential,
    which sends (label, c, eps=0, p) to (label, c, eps=1, p+1) whenever the
    target is still in the region.  Those copies sit inside each run, so a
    run is one strip whatever |n| is.

    ``corrupt_d2`` (a test hook) drops every page-two arrow.
    """
    labels = _circle_labels(spec, circle_labels)
    fixed = _fixed_part(spec) if surface is None else surface.fixed

    def image(run: tuple, label: int, mono: Monomial) -> list[tuple[tuple, int, Monomial, int]]:
        tag, _, p, on, bit = run
        terms = _d2_image(spec, (tag, mono, p, label, bit))
        return [((t, len(target), tp, on, tbit), tc, target, coeff) for (t, target, tp, tc, tbit), coeff in terms]

    sizes, strips = _ranked_page(spec.g, _circle_runs(spec, labels[1:]), image)
    return E2Page(fixed, FreeComplex(sizes, {} if corrupt_d2 else strips))


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
    """
    spec = Params(g, n, k)
    if spec.vanishes_by_adjunction:
        raise BadParams(f"spin-c level |k|={spec.abs_k} exceeds g-1={g - 1}")
    # the labels reach page two only; refuse bad ones before either page is built
    labels = _circle_labels(spec, circle_labels)
    # The pages are tuples, lists and dicts of ints and form no reference
    # cycles, so the cyclic collector has nothing to find in them; paused,
    # it stops rescanning their containers as they are built.  They die
    # with _run_pages's frame or with ``shared``, and form no cycle there.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run_pages(spec, pd_sign, labels, corrupt_d2, shared)
    finally:
        if collecting:
            gc.enable()


def _run_pages(
    spec: Params, pd_sign: int, labels: Sequence[int], corrupt_d2: bool, shared: dict[tuple, SurfacePage] | None
) -> HomologyResult:
    """Build and reduce both pages, and check what comes out."""
    shared = {} if shared is None else shared
    key = surface_key(spec)
    if key not in shared:
        shared[key] = build_surface_page(spec, pd_sign)
    surface = shared[key]
    page1 = build_e1_region(spec, pd_sign, surface)
    e2 = build_e2_symbolic(spec, labels, corrupt_d2, surface)
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
