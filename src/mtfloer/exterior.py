"""Integer exterior algebra on the first cohomology of a genus-g surface.

The symplectic basis of H^1 is ordered a1 < b1 < a2 < b2 < ... < ag < bg;
symbol index 2i names a_{i+1} and index 2i+1 names b_{i+1}.  Monomials are
strictly increasing tuples of symbol indices and all Koszul signs are taken
with respect to this order.  Throughout the package the distinguished
circle class gamma is dual to a1, so contraction means contraction with a1
and the Poincare dual of gamma is (a sign times) b1.

Contraction, wedge and their Koszul signs live in one monomial kernel,
:func:`contract_monomial` and :func:`wedge_monomials`.  :class:`ExtVector`
and the page differentials of ``knot_model`` all run on it, so the algebra
laws checked on ``ExtVector`` check the signs the pipeline runs.

The centered grading convention puts Lambda^i H^1 in degree i - g, so the
grading range is symmetric about zero.

The truncated tower X(g, d) appears two ways.  :func:`build_X` lists its
basis as :class:`XBasisElement` tuples; the oracle never does, because its
tower check compares the region's run shapes with the tower's.
:func:`x_ranks` counts its graded ranks from the Betti numbers of a
symmetric product, for every caller that needs only ranks: the closed
form, the symbolic page two and ``xgd`` without ``--homology``.  The
oracle's page-one gate compares that page two with homology computed by
linear algebra, so every oracle run checks the count at chain level.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .errors import BadParams, GenusMismatch
from .graded import GradedGroup

Monomial = tuple[int, ...]


def monomials(symbols: Sequence[int], size: int) -> Iterable[Monomial]:
    """All strictly increasing size-``size`` tuples from ``symbols``, in lex order."""
    return combinations(sorted(symbols), size)


def contract_monomial(mono: Monomial) -> Monomial | None:
    """Contraction with the class dual to a1 (symbol index 0); None if a1 does not divide.

    a1 sorts first, so removing it never picks up a sign.

    >>> contract_monomial((0, 1)), contract_monomial((1, 2))
    ((1,), None)
    """
    return mono[1:] if mono and mono[0] == 0 else None


def wedge_monomials(m1: Monomial, m2: Monomial) -> tuple[Monomial, int] | None:
    """Exterior product of two sorted monomials as (sorted monomial, Koszul sign).

    Each symbol of ``m1`` moves right past the symbols of ``m2`` that sort
    before it, so the sign is the parity of the symbols passed.  A repeated
    symbol makes the product zero, returned as None.

    >>> wedge_monomials((1,), (0, 2, 3))      # b1 passes a1
    ((0, 1, 2, 3), -1)
    """
    passed = 0
    for s in m1:
        i = bisect_left(m2, s)
        if i < len(m2) and m2[i] == s:
            return None
        passed += i
    return tuple(sorted(m1 + m2)), -1 if passed % 2 else 1


@dataclass(frozen=True)
class ExtVector:
    """An integer linear combination of exterior monomials over a fixed genus.

    Terms are stored sorted by (length, monomial) with zero coefficients
    dropped, so dataclass equality is equality of vectors.
    """

    genus: int
    terms: tuple[tuple[Monomial, int], ...] = ()

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise BadParams("genus must be >= 1")
        top = 2 * self.genus
        prev = None
        for mono, coeff in self.terms:
            key = (len(mono), mono)
            if prev is not None and key <= prev:
                raise ValueError("terms must be strictly sorted")
            prev = key
            if coeff == 0:
                raise ValueError("zero coefficient stored")
            if any(not 0 <= s < top for s in mono) or list(mono) != sorted(set(mono)):
                raise ValueError(f"bad monomial {mono} for genus {self.genus}")

    # -- construction ---------------------------------------------------

    @classmethod
    def zero(cls, genus: int) -> "ExtVector":
        return cls(genus)

    @classmethod
    def unit(cls, genus: int) -> "ExtVector":
        """The empty monomial 1 in Lambda^0."""
        return cls(genus, (((), 1),))

    @classmethod
    def monomial(cls, genus: int, indices: Sequence[int], coeff: int = 1) -> "ExtVector":
        """Wedge of the given symbols in the given order, one kernel step per symbol.

        >>> ExtVector.monomial(2, [3, 0]).terms       # b2 ^ a1 = -(a1 ^ b2)
        (((0, 3), -1),)
        """
        mono: Monomial = ()
        for s in reversed(indices):
            product = wedge_monomials((s,), mono)
            if product is None:
                return cls.zero(genus)
            mono, sign = product
            coeff *= sign
        return cls(genus, ((mono, coeff),)) if coeff else cls.zero(genus)

    @classmethod
    def from_terms(cls, genus: int, raw: Iterable[tuple[Monomial, int]]) -> "ExtVector":
        acc: dict[Monomial, int] = {}
        for mono, coeff in raw:
            acc[mono] = acc.get(mono, 0) + coeff
        terms = tuple(
            (mono, acc[mono])
            for mono in sorted(acc, key=lambda m: (len(m), m))
            if acc[mono] != 0
        )
        return cls(genus, terms)

    # -- vector-space structure ------------------------------------------

    def _check_genus(self, other: "ExtVector") -> None:
        if self.genus != other.genus:
            raise GenusMismatch(f"genus {self.genus} vs {other.genus}")

    def __add__(self, other: "ExtVector") -> "ExtVector":
        self._check_genus(other)
        return ExtVector.from_terms(self.genus, self.terms + other.terms)

    def __neg__(self) -> "ExtVector":
        return ExtVector(self.genus, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "ExtVector") -> "ExtVector":
        return self + (-other)

    def scale(self, c: int) -> "ExtVector":
        if c == 0:
            return ExtVector.zero(self.genus)
        return ExtVector(self.genus, tuple((m, c * k) for m, k in self.terms))

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not self.terms

    # -- algebra structure ------------------------------------------------

    def wedge(self, other: "ExtVector") -> "ExtVector":
        """Exterior product with Koszul signs.

        >>> t = ExtVector.monomial(2, [0, 2, 3])      # a1 ^ a2 ^ b2
        >>> b1 = ExtVector.monomial(2, [1])
        >>> b1.wedge(t).terms                          # b1 moves past a1
        (((0, 1, 2, 3), -1),)
        """
        self._check_genus(other)
        raw = [
            (product[0], product[1] * c1 * c2)
            for m1, c1 in self.terms
            for m2, c2 in other.terms
            if (product := wedge_monomials(m1, m2)) is not None
        ]
        return ExtVector.from_terms(self.genus, raw)

    def contract(self) -> "ExtVector":
        """Contraction with the class dual to a1, term by term.

        >>> ExtVector.monomial(2, [0, 1]).contract().terms
        (((1,), 1),)
        """
        raw = [
            (rest, coeff)
            for mono, coeff in self.terms
            if (rest := contract_monomial(mono)) is not None
        ]
        return ExtVector.from_terms(self.genus, raw)


def e_half(mono: Monomial) -> str:
    """Which half of the splitting along the genus-1 block a monomial sits in.

    "E-" when exactly one of {a1, b1} divides the monomial, "E+" when
    neither or both do.  A monomial is sorted, so a1 and b1, symbols 0
    and 1, can only be its first two.
    """
    head = mono[:2]
    return "E-" if (0 in head) + (1 in head) == 1 else "E+"


class XBasisElement(NamedTuple):
    """Basis element ``monomial (x) U^u`` of a truncated tower module.

    The monomial has exterior codegree i = 2g - len(monomial) and the
    U-exponent obeys 0 <= u <= d - i, so the grading g - i - 2u ranges over
    [g-2d .. g], symmetrically about g - d.  A named tuple, so elements
    order, compare and hash as the plain tuple (genus, monomial, u).
    """

    genus: int
    monomial: Monomial
    u: int

    @property
    def codegree(self) -> int:
        return 2 * self.genus - len(self.monomial)

    @property
    def grading(self) -> int:
        """g - codegree - 2u, written out so it reads no other property."""
        return len(self.monomial) - self.genus - 2 * self.u


class XModule(NamedTuple):
    basis: tuple[XBasisElement, ...]


def check_x_params(genus: int, d: int) -> None:
    if genus < 1:
        raise BadParams("genus must be >= 1")
    if d < -1:
        raise BadParams("truncation parameter d must be >= -1")


def build_X(genus: int, d: int) -> XModule:
    """The canonical ordered basis of the truncated tower X(g, d).

    X(g, d) = sum over i <= d of Lambda^{2g-i} (x) Z[U]/U^{d+1-i}: codegree
    i = 0 .. d (so monomial sizes from 2g down), monomials in lex order,
    u = 0 .. d - i.  ``knot_model.build_x_complex`` indexes the module by
    rank without it.  The basis grows exponentially in g; callers that need
    only graded ranks use :func:`x_ranks`.  ``d = -1`` is the zero module.
    """
    check_x_params(genus, d)
    return XModule(tuple(
        XBasisElement(genus, mono, u)
        for i in range(min(d, 2 * genus) + 1)
        for mono in monomials(range(2 * genus), 2 * genus - i)
        for u in range(d - i + 1)
    ))


def x_ranks(genus: int, d: int) -> GradedGroup:
    """The graded ranks of X(g, d), counted without enumerating a basis.

    X(g, d) has the ranks of H*(Sym^d of a genus-g surface), which sit in
    degrees g - 2d .. g; this is the one rank count of the tower that both
    routes use.  By Macdonald's generating function
    sum_d P(Sym^d)(t) q^d = (1 + tq)^{2g} / ((1 - q)(1 - t^2 q)), the rank
    in cohomological degree m = g - j is the sum of C(2g, r) over the r of
    m's parity with r <= min(m, 2d - m).  So the running sums of C(2g, r)
    over each parity, r = 0 .. d, give every degree, read at that bound.

    >>> [x_ranks(3, 2).rank(j) for j in range(3, -2, -1)]    # read at r = 0, 1, 2, 1, 0
    [1, 6, 16, 6, 1]
    """
    check_x_params(genus, d)
    sums = [comb(2 * genus, r) for r in range(d + 1)]
    for r in range(2, d + 1):
        sums[r] += sums[r - 2]
    return GradedGroup.free({genus - m: sums[min(m, 2 * d - m)] for m in range(2 * d + 1)})
