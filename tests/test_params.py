"""The parameter edges of (g, n, k), run through every entry point.

One table drives the parameter type, both routes and the ``compute`` and
``verify`` commands.  Each row names what each entry point does there: an
exception class, ``ZERO`` (the group vanishes by adjunction) or ``GROUP``
(the group of the conjugate level k = 1 at g = 3, n = 2).  The rules
behind the rows are checked again on random (g, n, k) by ``edge_of``.
"""

import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfloer import cli
from mtfloer.closed_form import theorem_answer
from mtfloer.errors import BadGenus, BadParams, ZeroTwist
from mtfloer.graded import GradedGroup
from mtfloer.knot_model import oracle_hfplus
from mtfloer.params import Params

ZERO = "zero"
GROUP = "group"
GROUP_RANKS = {3: 3, 2: 7}

# id, (g, n, k), Params, theorem_answer, oracle_hfplus, compute
EDGES = [
    ("g=1", (1, 2, 1), BadGenus, BadParams, BadParams, BadParams),
    ("n=0", (3, 0, 1), ZeroTwist, BadParams, ZeroTwist, BadParams),
    ("k=0", (3, 2, 0), BadParams, BadParams, BadParams, BadParams),
    ("|k|=g", (3, 2, 3), ZERO, ZERO, BadParams, ZERO),
    ("k=-g", (3, 2, -3), ZERO, ZERO, BadParams, ZERO),
    ("|k|>g", (3, 2, 5), ZERO, ZERO, BadParams, ZERO),
    ("k<0", (3, 2, -1), GROUP, GROUP, GROUP, GROUP),
]
IDS = [row[0] for row in EDGES]
ROWS = {row[0]: row for row in EDGES}


def column(index):
    return [(row[1], row[index]) for row in EDGES]


@pytest.mark.parametrize("gnk, outcome", column(2), ids=IDS)
def test_params_type(gnk, outcome):
    if outcome in (ZERO, GROUP):
        params = Params(*gnk)
        assert params.vanishes_by_adjunction == (outcome == ZERO)
        assert params.k == gnk[2] and params.abs_k == abs(gnk[2])
    else:
        with pytest.raises(outcome):
            Params(*gnk)


@pytest.mark.parametrize("gnk, outcome", column(3), ids=IDS)
def test_theorem_answer(gnk, outcome):
    if outcome == ZERO:
        assert theorem_answer(*gnk).is_zero()
    elif outcome == GROUP:
        assert theorem_answer(*gnk) == GradedGroup.free(GROUP_RANKS)
    else:
        with pytest.raises(outcome):
            theorem_answer(*gnk)


@pytest.mark.parametrize("gnk, outcome", column(4), ids=IDS)
def test_oracle_hfplus(gnk, outcome):
    if outcome == GROUP:
        result = oracle_hfplus(*gnk)
        assert result.group == GradedGroup.free(GROUP_RANKS)
        assert result.k == gnk[2]
    else:
        with pytest.raises(outcome):
            oracle_hfplus(*gnk)


def printed_groups(method, fmt, out):
    """The groups a compute call printed, one {degree: rank} per route."""
    routes = ["oracle", "closed"] if method == "both" else [method]
    if fmt == "json":
        payload = json.loads(out)
        objs = [payload[r] for r in routes] if method == "both" else [payload]
        return [{row["degree"]: row["rank"] for row in obj["degrees"]} for obj in objs]
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        return [{int(row["degree"]): int(row[f"rank_{r}"]) for row in rows} for r in routes]
    if "vanishes by adjunction: zero group" in out:
        return [{} for _ in routes]
    groups = []
    for line in out.splitlines():
        if line.endswith(":"):
            groups.append({})
        elif groups and line.split()[0].lstrip("-").isdigit():
            degree, rank, _ = line.split()
            groups[-1][int(degree)] = int(rank)
    return groups


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("method", ["oracle", "closed", "both"])
@pytest.mark.parametrize("gnk, outcome", column(5), ids=IDS)
def test_compute(capsys, gnk, outcome, method, fmt):
    g, n, k = gnk
    argv = ["compute", "--g", str(g), "--n", str(n), "--k", str(k)]
    code = cli.main(argv + ["--method", method, "--format", fmt])
    captured = capsys.readouterr()
    if outcome in (ZERO, GROUP):
        assert code == 0 and captured.err == ""
        ranks = {} if outcome == ZERO else GROUP_RANKS
        routes = 2 if method == "both" else 1
        assert printed_groups(method, fmt, captured.out) == [ranks] * routes
    else:
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [["--g-max", "1"], ["--n", "0"]], ids=["g=1", "n=0"])
def test_verify(capsys, argv):
    code = cli.main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error:")


# -- the rules behind the table, on random triples ----------------------------------------


def edge_of(g, n, k):
    """The id of the EDGES row whose rule (g, n, k) falls under, the first broken rule first."""
    if g < 2:
        return "g=1"
    if n == 0:
        return "n=0"
    if k == 0:
        return "k=0"
    if abs(k) >= g:
        return "|k|=g"
    return "k<0"  # any level inside the genus bound has a group, whatever its sign


def outcome_of(outcome, call):
    """The value of ``call()``, or None once it raised the outcome's exception class."""
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call()
        return None
    return call()


@settings(max_examples=60, deadline=None)
@given(st.integers(-1, 7), st.integers(-40, 40), st.integers(-9, 9))
def test_random_triples_follow_the_edge_rules(g, n, k):
    _, _, rule_params, rule_closed, rule_oracle, _ = ROWS[edge_of(g, n, k)]
    params = outcome_of(rule_params, lambda: Params(g, n, k))
    if params is not None:
        assert params.vanishes_by_adjunction == (rule_params == ZERO)
    closed = outcome_of(rule_closed, lambda: theorem_answer(g, n, k))
    if closed is not None:
        assert closed.is_zero() == (rule_closed == ZERO)
    result = outcome_of(rule_oracle, lambda: oracle_hfplus(g, n, k))
    if result is not None:
        assert rule_oracle == GROUP
        assert result.group == closed and result.k == k


@st.composite
def small_genus_large_twist(draw):
    g = draw(st.integers(2, 5))
    n = draw(st.integers(1, 10**6)) * draw(st.sampled_from((1, -1)))
    k = draw(st.integers(1, g - 1)) * draw(st.sampled_from((1, -1)))
    return g, n, k


@settings(max_examples=40, deadline=None)
@given(small_genus_large_twist())
def test_oracle_matches_the_closed_form_at_any_twist(gnk):
    # a circle run holds every label, so |n| up to a million costs what |n| = 2 does
    assert oracle_hfplus(*gnk).group == theorem_answer(*gnk)
