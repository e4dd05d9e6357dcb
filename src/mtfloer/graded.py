"""Finitely supported graded abelian groups over the integers.

A :class:`GradedGroup` assigns to finitely many integer degrees a finitely
generated abelian group, stored as a free rank together with a divisibility
chain of torsion coefficients (Smith invariants).  These groups are the
output currency of the whole package: both homology pipelines, the closed
form, and every CLI command speak this type.

All values are immutable and hashable; every operation returns a fresh
group, so instances can be shared freely across worker processes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import TorsionUnsupported

# (degree, free rank, torsion chain)
Entry = tuple[int, int, tuple[int, ...]]


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division.

    Torsion coefficients produced by the homology backend are tiny, so no
    sophistication is warranted here.
    """
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def torsion_chain(coefficients: Iterable[int]) -> tuple[int, ...]:
    """Renormalize a multiset of cyclic orders into invariant-factor form.

    The result is the unique divisibility chain t1 | t2 | ... presenting the
    same finite abelian group.

    >>> torsion_chain([2, 4])
    (2, 4)
    >>> torsion_chain([2, 3])
    (6,)
    >>> torsion_chain([4, 6])
    (2, 12)
    """
    by_prime: dict[int, list[int]] = defaultdict(list)
    for t in coefficients:
        if t < 2:
            raise ValueError(f"torsion coefficient {t} is not a cyclic order >= 2")
        for p, e in _factorint(t).items():
            by_prime[p].append(e)
    if not by_prime:
        return ()
    width = max(len(exps) for exps in by_prime.values())
    factors = [1] * width
    for p, exps in by_prime.items():
        exps.sort()
        padded = [0] * (width - len(exps)) + exps
        for i, e in enumerate(padded):
            factors[i] *= p**e
    return tuple(factors)


@dataclass(frozen=True)
class ShiftReport:
    """Outcome of comparing two graded groups up to one overall shift."""

    equal: bool
    shift: int | None = None


@dataclass(frozen=True)
class GradedGroup:
    """A finitely supported map ``degree -> (free rank, torsion chain)``.

    Entries are stored sorted by degree with trivial degrees omitted, so
    structural equality of instances is equality of graded groups.

    >>> a = GradedGroup.of({2: (1, []), 0: (0, [2, 4])})
    >>> a.rank(2), a.torsion(0)
    (1, (2, 4))
    >>> print(a)
    (Z/2 + Z/4)_(0) + Z_(2)
    """

    entries: tuple[Entry, ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for degree, rank, torsion in self.entries:
            if rank < 0:
                raise ValueError(f"negative rank at degree {degree}")
            if rank == 0 and not torsion:
                raise ValueError(f"trivial entry stored at degree {degree}")
            if prev is not None and degree <= prev:
                raise ValueError("entries must be strictly sorted by degree")
            if torsion and torsion[0] < 2:
                raise ValueError(f"torsion coefficients must be >= 2 at degree {degree}")
            for s, t in zip(torsion, torsion[1:]):
                if t % s:
                    raise ValueError(f"torsion at degree {degree} violates the divisibility chain")
            prev = degree

    # -- construction ---------------------------------------------------

    @classmethod
    def of(cls, data: Mapping[int, tuple[int, Iterable[int]]]) -> "GradedGroup":
        """Build from ``{degree: (rank, torsion)}``, dropping trivial degrees."""
        entries: list[Entry] = []
        for degree in sorted(data):
            rank, torsion = data[degree]
            chain = tuple(torsion)
            if rank or chain:
                entries.append((degree, rank, chain))
        return cls(tuple(entries))

    @classmethod
    def free(cls, ranks: Mapping[int, int]) -> "GradedGroup":
        """Build a torsion-free group from ``{degree: rank}``."""
        return cls.of({d: (r, ()) for d, r in ranks.items()})

    @classmethod
    def zero(cls) -> "GradedGroup":
        return cls()

    # -- accessors ------------------------------------------------------

    def rank(self, degree: int) -> int:
        for d, r, _ in self.entries:
            if d == degree:
                return r
        return 0

    def torsion(self, degree: int) -> tuple[int, ...]:
        for d, _, t in self.entries:
            if d == degree:
                return t
        return ()

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def is_free(self) -> bool:
        return all(not t for _, _, t in self.entries)

    def total_rank(self) -> int:
        """Sum of free ranks over all degrees (torsion not counted)."""
        return sum(r for _, r, _ in self.entries)

    def euler_characteristic(self) -> int:
        """Alternating rank sum; torsion contributes nothing."""
        return sum(r if d % 2 == 0 else -r for d, r, _ in self.entries)

    # -- operations -----------------------------------------------------

    def direct_sum(self, other: "GradedGroup") -> "GradedGroup":
        """Degreewise direct sum, torsion renormalized to a divisibility chain.

        >>> a = GradedGroup.of({0: (0, [2])})
        >>> b = GradedGroup.of({0: (0, [4])})
        >>> a.direct_sum(b) == GradedGroup.of({0: (0, [2, 4])})
        True
        """
        ranks: dict[int, int] = defaultdict(int)
        torsion: dict[int, list[int]] = defaultdict(list)
        for group in (self, other):
            for d, r, t in group.entries:
                ranks[d] += r
                torsion[d].extend(t)
        return GradedGroup.of({d: (ranks[d], torsion_chain(torsion[d])) for d in ranks})

    __add__ = direct_sum

    def tensor(self, other: "GradedGroup") -> "GradedGroup":
        """Graded tensor product of free groups (Cauchy convolution of ranks).

        >>> tower = GradedGroup.free({0: 1, 1: 1})
        >>> (tower.tensor(tower)) == GradedGroup.free({0: 1, 1: 2, 2: 1})
        True
        """
        if not self.is_free() or not other.is_free():
            raise TorsionUnsupported("tensor products are only defined for torsion-free operands")
        ranks: dict[int, int] = defaultdict(int)
        for da, ra, _ in self.entries:
            for db, rb, _ in other.entries:
                ranks[da + db] += ra * rb
        return GradedGroup.free(ranks)

    def shift(self, s: int) -> "GradedGroup":
        """Translate every degree by ``s`` (written ``G[s]``)."""
        return GradedGroup(tuple((d + s, r, t) for d, r, t in self.entries))

    def compare_up_to_shift(self, other: "GradedGroup") -> ShiftReport:
        """Decide whether ``other == self.shift(s)`` for some (unique) ``s``.

        The zero group is equal to itself at shift 0 and to nothing else.
        """
        if self.is_zero() and other.is_zero():
            return ShiftReport(True, 0)
        if self.is_zero() or other.is_zero():
            return ShiftReport(False)
        s = other.entries[0][0] - self.entries[0][0]
        if self.shift(s) == other:
            return ShiftReport(True, s)
        return ShiftReport(False)

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "degrees": [
                {"degree": d, "rank": r, "torsion": list(t)} for d, r, t in self.entries
            ]
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "GradedGroup":
        return cls.of(
            {row["degree"]: (row["rank"], row.get("torsion", ())) for row in obj["degrees"]}
        )

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for d, r, t in self.entries:
            if r == 1:
                parts.append(f"Z_({d})")
            elif r > 1:
                parts.append(f"Z^{r}_({d})")
            if t:
                cyclic = " + ".join(f"Z/{c}" for c in t)
                parts.append(f"({cyclic})_({d})" if len(t) > 1 else f"Z/{t[0]}_({d})")
        return " + ".join(parts)


def circles_cohomology(count: int, shift: int = 0) -> GradedGroup:
    """Cohomology of a disjoint union of ``count`` circles, shifted.

    H*(S^1 u ... u S^1) has rank ``count`` in degrees 0 and 1; ``shift``
    translates both.  ``count = 0`` gives the zero group.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return GradedGroup.zero()
    return GradedGroup.free({shift: count, shift + 1: count})


def odd_spheres_homology(count: int, p: int) -> GradedGroup:
    """Homology of a disjoint union of ``count`` spheres S^(2p-1).

    Rank ``count`` in degrees 0 and 2p-1; ``count = 0`` gives zero.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if p < 1:
        raise ValueError("sphere dimension parameter p must be >= 1")
    if count == 0:
        return GradedGroup.zero()
    return GradedGroup.free({0: count, 2 * p - 1: count})
