"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Shows that every output check accepts the program's real groups and
rejects wrong ones (a shifted degree, a changed rank, a dropped entry, an
added torsion summand, a missing or repeated report entry), and that a
`verify --corrupt-d2` sweep is counted as failed operations while the
triples that still pass keep `correct` true.  Exits 1 if any expectation
fails.
"""

from __future__ import annotations

import sys

import checks
import run
import workloads

FAILED: list[str] = []


def expect(holds: bool, label: str) -> None:
    print(f"{'PASS' if holds else 'FAIL'} {label}")
    if not holds:
        FAILED.append(label)


def mutants(group: dict) -> dict[str, dict]:
    """Wrong versions of a (nonzero, torsion-free) group."""
    top = max(group)
    rank, torsion = group[top]
    return {
        "a shifted degree": {d + 1: v for d, v in group.items()},
        "a changed rank": {**group, top: (rank + 1, torsion)},
        "a dropped entry": {d: v for d, v in group.items() if d != top},
        "added torsion": {**group, top: (rank, (2,))},
    }


def main() -> int:
    cli = run.load_program(workloads.Workload("selftest", ()))

    for g, n, k in [(4, 2, 2), (5, -3, 3), (6, 3, 1), (5, -1, 2)]:
        good = checks.read_group(cli.theorem_answer(g, n, k).to_json_dict())
        expect(not checks.check_triple(g, n, k, good, dict(good)), f"real group at {(g, n, k)} passes every check")
        for what, bad in mutants(good).items():
            if what != "added torsion":  # torsion does not enter chi
                expect(checks.check_euler(g, k, bad) is not None, f"Euler check rejects {what} at {(g, n, k)}")
            if abs(k) == g - 2:
                expect(checks.check_corollary(g, n, k, bad) is not None, f"k=g-2 check rejects {what} at {(g, n, k)}")
            expect(bool(checks.check_triple(g, n, k, good, bad)), f"oracle checks reject an oracle with {what} at {(g, n, k)}")
            expect(bool(workloads.check_conjugation(cli.theorem_answer, {(g, n, k): bad})),
                   f"conjugation check rejects {what} at {(g, n, k)}")
        expect(checks.check_torsion_free("oracle", mutants(good)["added torsion"]) is not None,
               f"torsion check rejects added torsion at {(g, n, k)}")

    grid = [(2, 1, 1), (3, 1, 1), (3, 1, 2)]
    report = {"entries": [{"params": {"g": g, "n": n, "k": k}} for g, n, k in grid]}
    expect(not checks.check_report_entries(report, grid), "report check accepts one entry per triple")
    dropped = {"entries": report["entries"][:-1]}
    expect(bool(checks.check_report_entries(dropped, grid)), "report check rejects a dropped entry")
    repeated = {"entries": report["entries"][:-1] + report["entries"][:1]}
    expect(bool(checks.check_report_entries(repeated, grid)), "report check rejects a repeated entry")

    # page-two arrows dropped: the oracle and the closed form part ways at
    # g=4, k=1 for |n| >= 2, the four triples where the arrows matter
    run.OUT_DIR.mkdir(exist_ok=True)
    op = workloads.verify_op(4, -3, 3, run.OUT_DIR / "selftest-corrupt-report.json", corrupt_d2=True)
    checked = workloads.check_op(op, workloads.run_op(cli, op))
    expect(checked.failed == 4, f"verify --corrupt-d2 counts its 4 failing triples as failed (counted {checked.failed})")
    expect(not checked.problems, "the 32 triples that still pass keep correct true")

    print(f"selftest: {len(FAILED)} failed expectations")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
