"""Acceptance suite: one check per shipping criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on stdout.  Everything here is exact integer or rational arithmetic;
there are no tolerances to loosen.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mtfloer.closed_form import (
    corollary_answer,
    degree_shift,
    degree_shift_argmax,
    surface_complement_cohomology,
    surface_rel_cohomology,
    theorem_answer,
    x_homology_formula,
)
from mtfloer.errors import NotAComplex
from mtfloer.exterior import ExtVector
from mtfloer.graded import GradedGroup, ShiftReport
from mtfloer.homology import FreeComplex, IntMatrix, check_smith_form, smith_normal_form
from mtfloer.knot_model import (
    build_e1_region,
    build_e2_symbolic,
    build_x_complex,
    collapse_hfk,
    hf_hat_M,
    hfk_M,
    oracle_hfplus,
    reference_tables,
)
from mtfloer.params import Params

G = GradedGroup.free

# the full desk-scale comparison grid: 36 admissible triples
GRID = [
    (g, n, k)
    for g in range(2, 5)
    for n in (-3, -2, -1, 1, 2, 3)
    for k in range(1, g)
]


@contextmanager
def criterion(line: str):
    try:
        yield
    except BaseException:
        print(f"{line}: FAIL")
        raise
    print(f"{line}: PASS")


def test_a1_oracle_equals_closed_form_on_the_grid():
    with criterion(
        "A1 oracle == closed form exactly (36 triples: g<=4, |n|<=3, 1<=k<=g-1)"
    ):
        for g, n, k in GRID:
            result = oracle_hfplus(g, n, k)
            closed = theorem_answer(g, n, k)
            assert result.gate == "passed", (g, n, k)
            assert result.group.is_free(), (g, n, k)
            assert result.group == closed, (g, n, k)
            assert closed.compare_up_to_shift(result.group) == ShiftReport(True, 0)


def test_a2_page_one_homology_matches_formula():
    with criterion(
        "A2 homology(X(g,d), d1) == closed formula, both twist conventions, g<=5"
    ):
        for g in range(2, 6):
            for d in range(0, g):
                assert build_x_complex(g, d).homology() == x_homology_formula(g, d), (
                    g,
                    d,
                )
                assert build_x_complex(g, d, left=True).homology() == x_homology_formula(
                    g, d, left=True
                ), (g, d, "left")


def test_a3_two_degree_level_against_reference_cohomology():
    with criterion(
        "A3 k=g-2 groups match the two-degree form and the reference cohomology"
    ):
        for g in (3, 4, 5):
            for n in range(1, 5):
                group = theorem_answer(g, n, g - 2)
                assert group == G({g: n + 1, g - 1: 2 * g + n - 1}), (g, n)
                assert group == corollary_answer(g, n)
                assert group == surface_rel_cohomology(g, n).shift(g - 2)
            for n in range(-4, 0):
                group = theorem_answer(g, n, g - 2)
                assert group == corollary_answer(g, n)
                report = surface_complement_cohomology(g, abs(n)).compare_up_to_shift(
                    group
                )
                assert report.equal, (g, n)


def test_a4_reference_tables_and_the_collapse():
    with criterion(
        "A4 knot tables exact for n<=5 and the collapse gives rank n+1 twice"
    ):
        for n in range(1, 6):
            table = hfk_M(n)
            assert table.filtrations() == (-1, 0, 1)
            assert table.level(1) == G({1: 1})
            assert table.level(0) == G({0: n + 2, 1: n})
            assert table.level(-1) == G({-1: 1})
            assert reference_tables("hfk_Mn", n) == table
            collapsed = collapse_hfk(n)
            assert collapsed == G({1: n + 1, 0: n + 1})
            assert collapsed == hf_hat_M(n)
        assert reference_tables("hfk_M1", 1) == hfk_M(1)


def test_a5_linear_algebra_properties():
    with criterion(
        "A5 1000 verified Smith forms, chain-complex guards, 1000 contraction laws"
    ):
        rng = random.Random(24252)
        for _ in range(1000):
            rows, cols = rng.randint(0, 12), rng.randint(0, 12)
            m = IntMatrix(
                rows,
                cols,
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
            )
            check_smith_form(m, smith_normal_form(m, verify=False))

        for g, n, k in GRID:
            spec = Params(g, n, k)
            for cx in (build_e1_region(spec), build_e2_symbolic(spec).d2_complex):
                assert cx.homology().euler_characteristic() == cx.euler_characteristic()
        for g in range(2, 6):
            for d in range(0, g):
                for left in (False, True):
                    cx = build_x_complex(g, d, left=left)
                    assert (
                        cx.homology().euler_characteristic() == cx.euler_characteristic()
                    )

        with pytest.raises(NotAComplex):
            FreeComplex.from_matrices(
                {0: ["x"], 1: ["y"], 2: ["z"]},
                {1: IntMatrix.from_rows([[1]]), 2: IntMatrix.from_rows([[1]])},
            )

        def random_vector(genus, terms):
            raw = []
            for _ in range(terms):
                size = rng.randint(0, 2 * genus)
                mono = tuple(sorted(rng.sample(range(2 * genus), size)))
                raw.append((mono, rng.choice([-3, -2, -1, 1, 2, 3])))
            return ExtVector.from_terms(genus, raw)

        for _ in range(1000):
            genus = rng.randint(2, 4)
            size = rng.randint(0, 2 * genus)
            u = ExtVector.monomial(
                genus,
                sorted(rng.sample(range(2 * genus), size)),
                rng.choice([-2, -1, 1, 2]),
            )
            v = random_vector(genus, rng.randint(0, 3))
            assert v.contract().contract().is_zero()
            sign = -1 if size % 2 else 1
            assert u.wedge(v).contract() == u.contract().wedge(v) + u.wedge(
                v.contract()
            ).scale(sign)


def test_a6_degree_shift_values_and_gap_bound():
    with criterion(
        "A6 degree shifts exact, argmax 0, gap >= min(2k, 2(n-k)) for n<=50"
    ):
        assert degree_shift(2, 1, 0) == Fraction(1, 4)
        assert degree_shift(2, 1, -1) == Fraction(-7, 4)
        for n in range(2, 51):
            for k in range(1, n):
                assert degree_shift_argmax(n, k) == 0
                top = degree_shift(n, k, 0)
                bound = min(2 * k, 2 * (n - k))
                gaps = [top - degree_shift(n, k, x) for x in range(-6, 7) if x]
                assert min(gaps) == bound, (n, k)


def test_a7_convention_robustness():
    with criterion(
        "A7 grid unchanged under fixed-class sign flip, label permutation, conjugation"
    ):
        rng = random.Random(20260817)
        for g, n, k in GRID:
            base = oracle_hfplus(g, n, k).group
            assert oracle_hfplus(g, n, k, pd_sign=-1).group == base, (g, n, k)
            labels = list(range(1, abs(n) + 1))
            rng.shuffle(labels)
            assert oracle_hfplus(g, n, k, circle_labels=labels).group == base, (g, n, k)
            assert oracle_hfplus(g, n, -k).group == base, (g, n, k)
