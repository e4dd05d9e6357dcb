"""Output checks that use facts derived apart from the program.

Groups arrive as the JSON the CLI prints (``{"degrees": [{"degree", "rank",
"torsion"}, ...]}``) and are read into plain ``{degree: (rank, torsion)}``
dicts here, so no check goes through the program's own ``GradedGroup``.
Every check returns ``None`` when it holds and a one-line reason when it
does not.
"""

from __future__ import annotations

from math import comb


def read_group(obj: dict) -> dict[int, tuple[int, tuple[int, ...]]]:
    """The JSON form of a graded group as ``{degree: (rank, torsion)}``."""
    return {row["degree"]: (row["rank"], tuple(row["torsion"])) for row in obj["degrees"]}


def expected_euler(g: int, k: int) -> int:
    """chi(HF+(M, s_k)) = (-1)^(k+1) * C(2g-2, g-1-k).

    A separating twist acts trivially on H_1, so chi is the Lefschetz number
    of the identity on Sym^(g-1-|k|) of the surface, which is
    +-chi(Sym^d Sigma_g) = +-C(2g-2, d).
    """
    d = g - 1 - abs(k)
    return (-1) ** (abs(k) + 1) * comb(2 * g - 2, d)


def check_euler(g: int, k: int, group: dict) -> str | None:
    chi = sum(rank if degree % 2 == 0 else -rank for degree, (rank, _) in group.items())
    want = expected_euler(g, k)
    if chi != want:
        return f"Euler characteristic {chi} at g={g} k={k}, expected {want}"
    return None


def corollary_group(g: int, n: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """The paper's two-degree group at k = g-2.

    Ranks |n|+1 and 2g+|n|-1, at degrees (g, g-1) for n > 0 and at
    (g-2, g-1) for n < 0.
    """
    m = abs(n)
    if n > 0:
        return {g: (m + 1, ()), g - 1: (2 * g + m - 1, ())}
    return {g - 1: (2 * g + m - 1, ()), g - 2: (m + 1, ())}


def check_corollary(g: int, n: int, k: int, group: dict) -> str | None:
    if abs(k) != g - 2:
        return None
    want = corollary_group(g, n)
    if group != want:
        return f"k=g-2 group at g={g} n={n}: {sorted(group.items())}, expected {sorted(want.items())}"
    return None


def check_torsion_free(label: str, group: dict) -> str | None:
    for degree, (_, torsion) in group.items():
        if torsion:
            return f"{label} has torsion {torsion} in degree {degree}"
    return None


def check_equal(label: str, got: dict, want: dict) -> str | None:
    if got != want:
        return f"{label}: {sorted(got.items())} != {sorted(want.items())}"
    return None


def check_triple(g: int, n: int, k: int, closed: dict, oracle: dict | None = None) -> list[str]:
    """Every per-triple check that applies: Euler characteristic and the k=g-2
    corollary for each route, torsion-freeness of the oracle, and oracle ==
    closed form."""
    problems = [check_euler(g, k, closed), check_corollary(g, n, k, closed)]
    if oracle is not None:
        problems += [
            check_euler(g, k, oracle),
            check_torsion_free(f"oracle at {(g, n, k)}", oracle),
            check_equal(f"oracle vs closed form at {(g, n, k)}", oracle, closed),
        ]
    return [p for p in problems if p]


def check_report_entries(report: dict, grid: list[tuple[int, int, int]]) -> list[str]:
    """The verify report holds exactly one entry per grid triple, in any order."""
    seen = [(e["params"]["g"], e["params"]["n"], e["params"]["k"]) for e in report["entries"]]
    if sorted(seen) != sorted(grid):
        missing = sorted(set(grid) - set(seen))[:3]
        extra = sorted(set(seen) - set(grid))[:3]
        return [
            f"report has {len(seen)} entries for {len(grid)} grid triples"
            f" (missing {missing}, unexpected {extra}, duplicates {len(seen) - len(set(seen))})"
        ]
    return []
