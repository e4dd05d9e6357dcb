"""Closed-form evaluators for the twist mapping-torus Floer groups.

Each function here assembles a graded group directly from binomial and
tower primitives, with no chain-level computation; the region pipeline in
``knot_model`` is the independent check on every formula.  The two routes
share only the parameter type (:class:`~mtfloer.params.Params`) and the
rank count of the truncated tower (:func:`~mtfloer.exterior.x_ranks`),
which the oracle's page-one gate checks at chain level.  Nothing here
enumerates a basis, so the cost is polynomial in the genus.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import BadParams
from .exterior import x_ranks
from .graded import GradedGroup, circles_cohomology, odd_spheres_homology
from .params import Params


def theorem_answer(g: int, n: int, k: int) -> GradedGroup:
    """The closed-form group at (g, n, k), in the X-convention grading.

    Three summands: a truncated tower tensored with the cohomology of two
    circles (shifted down by one for left twists), a single top exterior
    class, and one odd-sphere family per U-depth p = 1..d with |n|-1
    components each.  Inputs with |k| >= g return the zero group (adjunction
    vanishing).
    """
    params = Params(g, n, k)
    if params.vanishes_by_adjunction:
        return GradedGroup.zero()
    d, eps_n = params.d, params.eps_n

    total = x_ranks(g - 1, d - 1).tensor(circles_cohomology(2, eps_n))
    total += GradedGroup.free({g - d: comb(2 * g - 2, d)})
    for p in range(1, d + 1):
        label_rank = comb(2 * g - 2, d - p)
        family = GradedGroup.free({g - d - p + 1 + eps_n: label_rank})
        total += family.tensor(odd_spheres_homology(params.abs_n - 1, p))
    return total


def corollary_answer(g: int, n: int) -> GradedGroup:
    """The two-degree group at spin-c level k = g-2.

    Right twists sit at degrees {g, g-1}; left twists at {g-1, g-2} with the
    same ranks in |n|.
    """
    if g < 3:
        raise BadParams(f"the k=g-2 level needs genus >= 3, got {g}")
    if n == 0:
        raise BadParams("twist power n must be nonzero")
    m = abs(n)
    if n > 0:
        return GradedGroup.free({g: m + 1, g - 1: 2 * g + m - 1})
    return GradedGroup.free({g - 1: 2 * g + m - 1, g - 2: m + 1})


def surface_rel_cohomology(g: int, n: int) -> GradedGroup:
    """Cohomology of a genus-g surface relative to n parallel separating pushoffs."""
    if g < 2:
        raise BadParams(f"genus {g} < 2")
    if n < 1:
        raise BadParams("need at least one pushoff")
    return GradedGroup.free({2: n + 1, 1: 2 * g + n - 1})


def surface_complement_cohomology(g: int, n: int) -> GradedGroup:
    """Cohomology of the complement of n parallel separating pushoffs.

    Assembled component by component: one punctured torus, one punctured
    genus-(g-1) surface, and n-1 annuli.
    """
    if g < 2:
        raise BadParams(f"genus {g} < 2")
    if n < 1:
        raise BadParams("need at least one pushoff")
    total = GradedGroup.free({0: 1, 1: 2})
    total += GradedGroup.free({0: 1, 1: 2 * (g - 1)})
    for _ in range(n - 1):
        total += GradedGroup.free({0: 1, 1: 1})
    return total


def x_homology_formula(g: int, d: int, left: bool = False) -> GradedGroup:
    """Closed form for the page-one homology of the truncated tower X(g, d).

    A smaller tower tensored with the cohomology of one circle (shifted by
    -1 in the left-handed convention) plus one exterior class at degree g-d.
    """
    if g < 2:
        raise BadParams(f"genus {g} < 2")
    if not 0 <= d <= g - 1:
        raise BadParams(f"need 0 <= d <= g-1, got d={d}")
    eps = -1 if left else 0
    return x_ranks(g - 1, d - 1).tensor(circles_cohomology(1, eps)) + GradedGroup.free(
        {g - d: comb(2 * g - 2, d)}
    )


def _check_shift_params(n: int, k: int) -> None:
    if n < 1:
        raise BadParams("the twist power must be >= 1 here")
    if not 1 <= k <= n - 1:
        raise BadParams(f"need 1 <= k <= n-1, got k={k}")


def degree_shift(n: int, k: int, x: int) -> Fraction:
    """Exact degree of the x-th summand in the k-th shifted tower.

    deg = -n x^2 - (n - 2k) x + (n - (n - 2k)^2) / (4n).
    """
    _check_shift_params(n, k)
    c = n - 2 * k
    return -n * x * x - c * x + Fraction(n - c * c, 4 * n)


def degree_shift_argmax(n: int, k: int) -> int:
    """The integer maximizing :func:`degree_shift` in x.

    The quadratic's vertex is -1/2 + k/n, strictly inside (-1/2, 1/2) for
    1 <= k <= n-1, so the maximizer is found among the two integers
    bracketing the vertex.
    """
    _check_shift_params(n, k)
    vertex = Fraction(-1, 2) + Fraction(k, n)
    lo = vertex.__floor__()
    hi = lo + 1
    return lo if degree_shift(n, k, lo) >= degree_shift(n, k, hi) else hi


def fraction_json(q: Fraction) -> dict:
    """Exact fraction serialization used by the CLI."""
    return {"num": q.numerator, "den": q.denominator}
