"""Command-line front end: single computations, sweeps, and table dumps."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .closed_form import (
    corollary_answer,
    degree_shift,
    degree_shift_argmax,
    fraction_json,
    surface_complement_cohomology,
    surface_rel_cohomology,
    theorem_answer,
    x_homology_formula,
)
from .errors import BadParams, GateFailure, UnknownTable
from .exterior import x_ranks
from .graded import GradedGroup
from .knot_model import FilteredGroup, build_x_complex, oracle_hfplus, reference_tables
from .params import Params

SCHEMA = "1"


# -- serialization helpers -------------------------------------------------


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _group_lines(group: GradedGroup, indent: str = "") -> list[str]:
    if group.is_zero():
        return [f"{indent}(zero group)"]
    lines = [f"{indent}degree  rank  torsion"]
    for d, r, t in reversed(group.entries):
        torsion = ",".join(str(x) for x in t) if t else "-"
        lines.append(f"{indent}{d:>6}  {r:>4}  {torsion}")
    return lines


def _closed_json(
    g: int, n: int, k: int, group: GradedGroup, vanishes: bool, pipeline: str = "closed"
) -> dict:
    out = group.to_json_dict()
    out.update(
        {
            "pipeline": pipeline,
            "gate": "n/a",
            "g": g,
            "n": n,
            "k": k,
            "grading_convention": "X",
        }
    )
    if vanishes:
        out["vanishes_by_adjunction"] = True
    return out


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["g", "n", "k", "degree", "rank_oracle", "rank_closed", "match"])
    writer.writerows(rows)
    return buf.getvalue()


def _comparison_rows(
    g: int,
    n: int,
    k: int,
    oracle: GradedGroup | None,
    closed: GradedGroup | None,
    match: bool | None,
) -> list[list]:
    degrees: set[int] = set()
    for group in (oracle, closed):
        if group is not None:
            degrees.update(group.degrees())
    rows = []
    match_cell = "" if match is None else ("true" if match else "false")
    for degree in sorted(degrees):
        rows.append(
            [
                g,
                n,
                k,
                degree,
                "" if oracle is None else oracle.rank(degree),
                "" if closed is None else closed.rank(degree),
                match_cell,
            ]
        )
    return rows


def _print(text: str) -> None:
    sys.stdout.write(text)


# -- compute ----------------------------------------------------------------


def cmd_compute(args) -> int:
    g, n, k = args.g, args.n, args.k
    if Params(g, n, k).vanishes_by_adjunction:
        # the group is zero for |k| >= g; report it for any method without
        # running the pipeline, so parameter rectangles never crash
        zero = GradedGroup.zero()
        if args.format == "json":
            pipeline = "adjunction" if args.method == "oracle" else "closed"
            payload: dict = _closed_json(g, n, k, zero, True, pipeline)
            if args.method == "both":
                payload = {
                    "g": g,
                    "n": n,
                    "k": k,
                    "oracle": _closed_json(g, n, k, zero, True, "adjunction"),
                    "closed": _closed_json(g, n, k, zero, True),
                    "match": True,
                    "shift": 0,
                }
            _print(_dumps(payload))
        elif args.format == "csv":
            _print(_csv_text(_comparison_rows(g, n, k, zero, zero, True)))
        else:
            _print(f"(g={g}, n={n}, k={k}) vanishes by adjunction: zero group\n")
        return 0

    oracle_result = None
    oracle = closed = None
    if args.method in ("oracle", "both"):
        oracle_result = oracle_hfplus(g, n, k)
        oracle = oracle_result.group
    if args.method in ("closed", "both"):
        closed = theorem_answer(g, n, k)

    match = shift = None
    if args.method == "both":
        match = oracle == closed
        report = closed.compare_up_to_shift(oracle)
        shift = report.shift

    if args.format == "json":
        if args.method == "oracle":
            payload = oracle_result.to_json_dict()
        elif args.method == "closed":
            payload = _closed_json(g, n, k, closed, False)
        else:
            payload = {
                "g": g,
                "n": n,
                "k": k,
                "oracle": oracle_result.to_json_dict(),
                "closed": _closed_json(g, n, k, closed, False),
                "match": match,
                "shift": shift,
            }
        _print(_dumps(payload))
    elif args.format == "csv":
        _print(_csv_text(_comparison_rows(g, n, k, oracle, closed, match)))
    else:
        header = f"(g={g}, n={n}, k={k})"
        blocks = []
        if oracle is not None:
            blocks.append(f"{header} oracle:\n" + "\n".join(_group_lines(oracle, "  ")))
        if closed is not None:
            blocks.append(f"{header} closed form:\n" + "\n".join(_group_lines(closed, "  ")))
        if match is not None:
            blocks.append(f"match: {str(match).lower()}")
        _print("\n".join(blocks) + "\n")

    if match is False:
        print(f"compute: oracle/closed mismatch at g={g} n={n} k={k}", file=sys.stderr)
        return 3
    return 0


# -- verify -------------------------------------------------------------------


def _parse_n_range(text: str) -> list[int]:
    """Parse '-2..2' (inclusive, 0 skipped) or a single integer."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo > hi:
            raise BadParams(f"empty n range {text!r}")
        values = [n for n in range(lo, hi + 1) if n != 0]
        if not values:
            raise BadParams(f"n range {text!r} holds no nonzero twist power")
        return values
    n = int(text)
    if n == 0:
        raise BadParams("twist power n must be nonzero")
    return [n]


def _worker_count() -> int:
    cap_text = os.environ.get("MTFLOER_THREADS")
    workers = min(4, os.cpu_count() or 1)
    if cap_text:
        try:
            cap = int(cap_text)
        except ValueError:
            raise BadParams(f"MTFLOER_THREADS={cap_text!r} is not an integer")
        workers = max(1, min(workers, cap))
    return workers


def _verify_triple(task: tuple[int, int, int, bool, bool]) -> dict:
    g, n, k, corrupt, timing = task
    start = time.perf_counter()
    gate = "passed"
    oracle_group = None
    try:
        oracle_group = oracle_hfplus(g, n, k, corrupt_d2=corrupt).group
    except GateFailure as exc:
        gate = f"failed: {exc}"
    closed = theorem_answer(g, n, k)
    elapsed = time.perf_counter() - start
    match = gate == "passed" and oracle_group == closed
    shift = None
    if oracle_group is not None:
        shift = closed.compare_up_to_shift(oracle_group).shift
    return {
        "params": {"g": g, "n": n, "k": k},
        "oracle": None if oracle_group is None else oracle_group.to_json_dict(),
        "closed": closed.to_json_dict(),
        "match": match,
        "shift": shift,
        "gate": gate,
        "wall_time": elapsed if timing else 0.0,
    }


def run_sweep(
    g_max: int, n_values: list[int], corrupt_d2: bool = False, timing: bool = False
) -> dict:
    """Oracle-vs-closed comparison over all admissible (g, n, k); order-stable."""
    if g_max < 2:
        raise BadParams(f"g-max {g_max} < 2")
    tasks = [
        (g, n, k, corrupt_d2, timing)
        for g in range(2, g_max + 1)
        for n in n_values
        for k in range(1, g)
    ]
    workers = _worker_count()
    if workers == 1 or len(tasks) <= 1:
        entries = [_verify_triple(task) for task in tasks]
    else:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                entries = list(pool.map(_verify_triple, tasks))
        except OSError:
            entries = [_verify_triple(task) for task in tasks]
    return {
        "schema": SCHEMA,
        "g_max": g_max,
        "n_values": n_values,
        "entries": entries,
    }


def cmd_verify(args) -> int:
    n_values = _parse_n_range(args.n)
    report = run_sweep(args.g_max, n_values, corrupt_d2=args.corrupt_d2, timing=args.timing)

    if args.format == "csv":
        rows = []
        for entry in report["entries"]:
            params = entry["params"]
            oracle = None if entry["oracle"] is None else GradedGroup.from_json_dict(entry["oracle"])
            closed = GradedGroup.from_json_dict(entry["closed"])
            rows.extend(
                _comparison_rows(
                    params["g"], params["n"], params["k"], oracle, closed, entry["match"]
                )
            )
        text = _csv_text(rows)
    else:
        text = _dumps(report)

    if args.emit:
        with open(args.emit, "w") as handle:
            handle.write(text)
        total = len(report["entries"])
        good = sum(1 for entry in report["entries"] if entry["match"])
        _print(f"verify: {good}/{total} triples match; report written to {args.emit}\n")
    else:
        _print(text)

    for entry in report["entries"]:
        if not entry["match"]:
            params = entry["params"]
            print(
                "verify: first mismatch at "
                f"g={params['g']} n={params['n']} k={params['k']} (gate: {entry['gate']})",
                file=sys.stderr,
            )
            return 3
    return 0


# -- tables / xgd / corollary / degshift ---------------------------------------


def cmd_tables(args) -> int:
    table = reference_tables(args.name, args.n, top=args.top)
    if args.format == "json":
        payload = {"table": args.name, "n": args.n}
        if args.name in ("hfplus_Z", "hfplus_Mn"):
            payload["top"] = args.top
        payload.update(table.to_json_dict())
        _print(_dumps(payload))
    else:
        lines = [f"table {args.name} at n={args.n}"]
        if isinstance(table, FilteredGroup):
            for j, group in reversed(table.levels):
                lines.append(f"filtration j={j}:")
                lines.extend(_group_lines(group, "  "))
        else:
            lines.extend(_group_lines(table, "  "))
        _print("\n".join(lines) + "\n")
    return 0


def cmd_xgd(args) -> int:
    if args.homology:
        group = build_x_complex(args.g, args.d, left=args.left).homology()
        # the closed form for the same page; mismatch here is a library bug
        formula = x_homology_formula(args.g, args.d, left=args.left)
        match = group == formula
    else:
        group = x_ranks(args.g, args.d)
        formula = None
        match = None
    if args.format == "json":
        payload = {
            "g": args.g,
            "d": args.d,
            "left": args.left,
            "homology": args.homology,
        }
        payload.update(group.to_json_dict())
        if match is not None:
            payload["matches_formula"] = match
        _print(_dumps(payload))
    else:
        title = "homology of (X, d1)" if args.homology else "X module"
        lines = [f"{title} at g={args.g}, d={args.d}" + (" (left)" if args.left else "")]
        lines.extend(_group_lines(group, "  "))
        if match is not None:
            lines.append(f"matches formula: {str(match).lower()}")
        _print("\n".join(lines) + "\n")
    if match is False:
        print(f"xgd: homology/formula mismatch at g={args.g} d={args.d}", file=sys.stderr)
        return 3
    return 0


def cmd_corollary(args) -> int:
    g, n = args.g, args.n
    theorem = theorem_answer(g, n, g - 2)
    corollary = corollary_answer(g, n)
    if n > 0:
        reference = surface_rel_cohomology(g, n).shift(g - 2)
        kind = "relative"
        match = theorem == corollary == reference
        shift = g - 2 if match else None
    else:
        reference = surface_complement_cohomology(g, abs(n))
        kind = "complement"
        report = reference.compare_up_to_shift(theorem)
        match = theorem == corollary and report.equal
        shift = report.shift
    if args.format == "json":
        _print(
            _dumps(
                {
                    "g": g,
                    "n": n,
                    "k": g - 2,
                    "theorem": theorem.to_json_dict(),
                    "corollary": corollary.to_json_dict(),
                    "reference": reference.to_json_dict(),
                    "reference_kind": kind,
                    "match": match,
                    "shift": shift,
                }
            )
        )
    else:
        lines = [f"(g={g}, n={n}, k={g - 2}) closed form:"]
        lines.extend(_group_lines(theorem, "  "))
        lines.append(f"reference ({kind} cohomology) shift: {shift}")
        lines.append(f"match: {str(match).lower()}")
        _print("\n".join(lines) + "\n")
    if not match:
        print(f"corollary: mismatch at g={g} n={n}", file=sys.stderr)
        return 3
    return 0


def cmd_degshift(args) -> int:
    value = degree_shift(args.n, args.k, args.x)
    payload = {
        "n": args.n,
        "k": args.k,
        "x": args.x,
        "value": fraction_json(value),
        "argmax": degree_shift_argmax(args.n, args.k),
    }
    if args.format == "json":
        _print(_dumps(payload))
    else:
        _print(
            f"deg(n={args.n}, k={args.k}, x={args.x}) = {value}; "
            f"argmax = {payload['argmax']}\n"
        )
    return 0


# -- parser ---------------------------------------------------------------------


def _allow_negative_values(parser: argparse.ArgumentParser) -> None:
    # let bare values like -2..2 through; argparse would read them as options
    parser._negative_number_matcher = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtfloer",
        description="Exact Floer groups of separating-twist mapping tori, two ways.",
    )
    _allow_negative_values(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="one (g, n, k) group, by either or both methods")
    _allow_negative_values(compute)
    compute.add_argument("--g", type=int, required=True)
    compute.add_argument("--n", type=int, required=True)
    compute.add_argument("--k", type=int, required=True)
    compute.add_argument("--method", choices=("oracle", "closed", "both"), default="both")
    compute.add_argument("--format", choices=("json", "table", "csv"), default="table")
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser("verify", help="sweep oracle vs closed form over a grid")
    _allow_negative_values(verify)
    verify.add_argument("--g-max", type=int, default=3, dest="g_max")
    verify.add_argument("--n", default="-2..2", help="single value or inclusive range lo..hi (0 skipped)")
    verify.add_argument("--emit", help="write the report to this path")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.add_argument("--timing", action="store_true", help="record real wall times (non-reproducible output)")
    verify.add_argument("--corrupt-d2", action="store_true", dest="corrupt_d2", help="test hook: drop every page-two arrow")
    verify.set_defaults(func=cmd_verify)

    tables = sub.add_parser("tables", help="dump a bundled reference table")
    _allow_negative_values(tables)
    tables.add_argument("name", choices=("hfk_M1", "hfk_Mn", "hf_hat_Mn", "hfplus_Z", "hfplus_Mn"))
    tables.add_argument("--n", type=int, required=True)
    tables.add_argument("--top", type=int, default=6, help="truncation slot for the tower tables")
    tables.add_argument("--format", choices=("json", "table"), default="table")
    tables.set_defaults(func=cmd_tables)

    xgd = sub.add_parser("xgd", help="the truncated tower module X(g, d), or its page-one homology")
    _allow_negative_values(xgd)
    xgd.add_argument("--g", type=int, required=True)
    xgd.add_argument("--d", type=int, required=True)
    xgd.add_argument("--homology", action="store_true")
    xgd.add_argument("--left", action="store_true", help="left-handed twist convention")
    xgd.add_argument("--format", choices=("json", "table"), default="table")
    xgd.set_defaults(func=cmd_xgd)

    corollary = sub.add_parser("corollary", help="the k = g-2 group three ways")
    _allow_negative_values(corollary)
    corollary.add_argument("--g", type=int, required=True)
    corollary.add_argument("--n", type=int, required=True)
    corollary.add_argument("--format", choices=("json", "table"), default="table")
    corollary.set_defaults(func=cmd_corollary)

    degshift = sub.add_parser("degshift", help="exact degree-shift values and maximizer")
    _allow_negative_values(degshift)
    degshift.add_argument("--n", type=int, required=True)
    degshift.add_argument("--k", type=int, required=True)
    degshift.add_argument("--x", type=int, default=0)
    degshift.add_argument("--format", choices=("json", "table"), default="table")
    degshift.set_defaults(func=cmd_degshift)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BadParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownTable as exc:
        print(f"error: unknown table {exc}", file=sys.stderr)
        return 2
    except GateFailure as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
