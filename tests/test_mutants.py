"""Mutation suite: each test plants one fault by monkeypatching and asserts
that some check of the suite catches it.

A check is only worth its name if a wrong program fails it.  Each mutant
here runs in process; each test also runs its check on the unmutated code,
so a check that fails everywhere cannot pass for one that bites.
"""

import random
import sys

from mtfloer import exterior, knot_model
from mtfloer.closed_form import theorem_answer
from mtfloer.exterior import ExtVector
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
