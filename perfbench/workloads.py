"""The four workloads: fixed (g, n, k) grids, the CLI calls that compute
them, and the checks run on what each call printed or wrote.

Every grid is fixed; nothing here is drawn at random.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_equal, check_report_entries, check_triple, read_group

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class Op:
    """One `mtfloer` CLI call and the triples it computes."""

    argv: tuple[str, ...]
    triples: tuple[Triple, ...]
    report: Path | None = None  # where `verify --emit` writes its report


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    snf_verify: bool = False  # run with MTFLOER_SNF_VERIFY=1

    @property
    def triples(self) -> int:
        return sum(len(op.triples) for op in self.ops)


def compute_op(g: int, n: int, k: int, method: str = "both") -> Op:
    argv = ("compute", "--g", str(g), "--n", str(n), "--k", str(k), "--method", method, "--format", "json")
    return Op(argv, ((g, n, k),))


def verify_op(g_max: int, n_lo: int, n_hi: int, report: Path, corrupt_d2: bool = False) -> Op:
    grid = tuple(
        (g, n, k)
        for g in range(2, g_max + 1)
        for n in range(n_lo, n_hi + 1)
        if n
        for k in range(1, g)
    )
    argv = ("verify", "--g-max", str(g_max), "--n", f"{n_lo}..{n_hi}", "--emit", str(report))
    if corrupt_d2:
        argv += ("--corrupt-d2",)
    return Op(argv, grid, report)


def build(name: str, out_dir: Path) -> Workload:
    if name == "frontier":
        # the largest k = 1 triple the dense oracle finishes
        return Workload(name, (compute_op(6, 3, 1),))
    if name == "sweep":
        return Workload(name, (verify_op(5, -6, 6, out_dir / "sweep-report.json"),))
    if name == "closed":
        ops = tuple(
            compute_op(g, n, k, "closed")
            for g in range(2, 11)
            for n in (1, -1, 2, -2, 3, -3)
            for k in range(1, g)
        )
        return Workload(name, ops)
    if name == "paranoid":
        return Workload(name, (compute_op(5, 3, 1), compute_op(5, -3, 1)), snf_verify=True)
    raise KeyError(name)


NAMES = ("frontier", "sweep", "closed", "paranoid")


@dataclass
class Outcome:
    """What one call returned: exit code, stdout, or the exception it raised."""

    code: int | None
    stdout: str
    error: str = ""


def run_op(cli, op: Op) -> Outcome:
    """Call `mtfloer.cli.main` the way the `mtfloer` command would."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a dead run
        return Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Outcome(code, out.getvalue(), err.getvalue())


@dataclass
class Checked:
    """Failed operations and check problems of one call, plus the closed-form
    group of every triple that did not fail."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)
    closed: dict[Triple, dict] = field(default_factory=dict)


def check_op(op: Op, outcome: Outcome) -> Checked:
    if op.report is not None:
        return _check_verify(op, outcome)
    result = Checked()
    (g, n, k), = op.triples
    if outcome.code != 0:
        print(f"failed: mtfloer {' '.join(op.argv)}: exit {outcome.code} {outcome.error.strip()}", file=sys.stderr)
        result.failed = 1
        return result
    payload = json.loads(outcome.stdout)
    oracle = None
    if "oracle" in payload:
        oracle = read_group(payload["oracle"])
        payload = payload["closed"]
    if (payload["g"], payload["n"], payload["k"]) != (g, n, k):
        result.problems.append(f"output is for {(payload['g'], payload['n'], payload['k'])}, asked {(g, n, k)}")
    closed = read_group(payload)
    result.problems += check_triple(g, n, k, closed, oracle)
    result.closed[(g, n, k)] = closed
    return result


def _check_verify(op: Op, outcome: Outcome) -> Checked:
    result = Checked()
    if outcome.code not in (0, 3):  # 3: the sweep ran and some triple failed
        print(f"failed: mtfloer {' '.join(op.argv)}: exit {outcome.code} {outcome.error.strip()}", file=sys.stderr)
        result.failed = len(op.triples)
        return result
    report = json.loads(op.report.read_text())
    result.problems += check_report_entries(report, list(op.triples))
    for entry in report["entries"]:
        params = entry["params"]
        triple = (params["g"], params["n"], params["k"])
        if not entry["match"] or entry["gate"] != "passed":
            result.failed += 1
            continue
        closed = read_group(entry["closed"])
        result.problems += check_triple(*triple, closed, read_group(entry["oracle"]))
        result.closed[triple] = closed
    return result


def check_conjugation(theorem_answer, closed: dict[Triple, dict]) -> list[str]:
    """The closed form is invariant under k -> -k."""
    problems = []
    for (g, n, k), group in sorted(closed.items()):
        conjugate = read_group(theorem_answer(g, n, -k).to_json_dict())
        problem = check_equal(f"closed form at {(g, n, k)} vs k -> -k", conjugate, group)
        if problem:
            problems.append(problem)
    return problems
