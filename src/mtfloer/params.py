"""The validated parameters (g, n, k) of one Floer group.

g is the genus of the surface, n the signed power of the twist and k the
signed spin-c level.  Both routes and the CLI build their inputs through
:class:`Params`, so each parameter rule, and the circle shift ``eps(n)``,
is written once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadGenus, BadParams, ZeroTwist


def eps(n: int) -> int:
    """Degree shift of the circle classes: 0 for right twists, -1 for left ones."""
    if n == 0:
        raise ZeroTwist("twist power n must be nonzero")
    return 0 if n > 0 else -1


@dataclass(frozen=True)
class Params:
    """Genus g >= 2, twist power n != 0 and spin-c level k != 0.

    The sign of k is kept; conjugation k -> -k never changes the group, so
    the computations read ``abs_k``.  Levels with |k| >= g are valid inputs
    whose group vanishes by adjunction.
    """

    g: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.g < 2:
            raise BadGenus(f"genus {self.g} < 2")
        eps(self.n)  # raises ZeroTwist for n = 0
        if self.k == 0:
            raise BadParams("the torsion spin-c structure k=0 is out of scope")

    @property
    def abs_k(self) -> int:
        return abs(self.k)

    @property
    def abs_n(self) -> int:
        return abs(self.n)

    @property
    def d(self) -> int:
        """Symmetric-product degree g - 1 - |k| (negative when the group vanishes)."""
        return self.g - 1 - self.abs_k

    @property
    def eps_n(self) -> int:
        return eps(self.n)

    @property
    def vanishes_by_adjunction(self) -> bool:
        """Whether |k| >= g, where the group is zero outright."""
        return self.abs_k >= self.g
