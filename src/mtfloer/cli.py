"""Command-line front end: single computations, sweeps, and table dumps."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, NamedTuple, Sequence

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
from .knot_model import FilteredGroup, build_x_complex, oracle_hfplus, reference_tables, region_size
from .params import Params

SCHEMA = "1"

# The largest oracle region, in generators, that compute and verify start,
# and the largest X(g, d) that `xgd --homology` builds.  A fresh `compute`
# process peaks at 0.256 kB per generator (g = 10, n = 3, k = 1: 1,164,038
# generators, 284 MB, 5.4-5.6 s on 2 CPUs; `scripts/genus_frontier.py`), so
# the default keeps a run under 1 GB: it admits g = 10 at k = 1 and refuses
# g = 11 (5,086,660 generators).
MAX_GENERATORS = 2_000_000


# -- output -------------------------------------------------------------------


class Output(NamedTuple):
    """What a command computed, in every form ``main`` can print it.

    ``payload`` is printed as JSON, the rows that ``rows()`` returns as CSV
    and the lines that ``lines()`` returns as the table; each of the two is
    built only when its format is asked for.  ``failure`` goes to stderr
    and makes the exit code 3.  ``verify`` has no table format: its
    ``lines()`` hold the summary that ``--emit`` prints in place of the
    report.
    """

    payload: object = None
    lines: Callable[[], Sequence[str]] = tuple
    rows: Callable[[], Sequence[list]] = tuple
    failure: str | None = None


_quote = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _dumps(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline.

    With ``indent`` set, ``json.dumps`` runs the pure-Python generator
    encoder; this writer appends to one list and joins once.  It takes
    dicts with str keys, lists, tuples, str, int, float, bool and None, by
    exact type; any other value raises TypeError, as does a non-str key.
    """
    parts: list[str] = []
    try:
        _write(obj, parts, "\n")
    except RecursionError:
        raise ValueError("circular or too deeply nested value") from None
    parts.append("\n")
    return "".join(parts)


def _write(obj, parts: list[str], newline: str) -> None:
    """Append the JSON text of ``obj``; ``newline`` is the line break plus the current indent."""
    kind = type(obj)
    if kind is str:
        parts.append(_quote(obj))
    elif kind is int:
        parts.append(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts += (opener, _quote(key), ": ")
            _write(obj[key], parts, inner)
            opener = "," + inner
        parts.append(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in obj:
            parts.append(opener)
            _write(item, parts, inner)
            opener = "," + inner
        parts.append(newline + "]")
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif kind is float:
        if obj != obj:
            parts.append("NaN")
        elif obj == _INF:
            parts.append("Infinity")
        elif obj == -_INF:
            parts.append("-Infinity")
        else:
            parts.append(float.__repr__(obj))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _csv_text(rows: Sequence[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["g", "n", "k", "degree", "rank_oracle", "rank_closed", "match"])
    writer.writerows(rows)
    return buf.getvalue()


def _render(out: Output, fmt: str) -> str:
    if fmt == "json":
        return _dumps(out.payload)
    if fmt == "csv":
        return _csv_text(out.rows())
    return "".join(line + "\n" for line in out.lines())


def _group_lines(group: GradedGroup, indent: str = "") -> list[str]:
    if group.is_zero():
        return [f"{indent}(zero group)"]
    lines = [f"{indent}degree  rank  torsion"]
    for d, r, t in reversed(group.entries):
        torsion = ",".join(str(x) for x in t) if t else "-"
        lines.append(f"{indent}{d:>6}  {r:>4}  {torsion}")
    return lines


def _group_record(
    g: int, n: int, k: int, group: GradedGroup, pipeline: str, gate: str = "n/a", page: str | None = None,
    vanishes: bool = False,
) -> dict:
    """One group as ``compute`` reports it; only the oracle's record names a page."""
    out = group.to_json_dict()
    out.update({"pipeline": pipeline, "gate": gate, "g": g, "n": n, "k": k, "grading_convention": "X"})
    if page is not None:
        out["page"] = page
    if vanishes:
        out["vanishes_by_adjunction"] = True
    return out


def _comparison_rows(
    triple: tuple[int, int, int], oracle: GradedGroup | None, closed: GradedGroup | None, match: bool | None
) -> list[list]:
    """One CSV row per degree of either group; a missing group leaves its cells empty."""
    groups = (oracle, closed)
    degrees = sorted({d for group in groups if group is not None for d in group.degrees()})
    match_cell = "" if match is None else str(match).lower()
    return [
        [*triple, d, *("" if group is None else group.rank(d) for group in groups), match_cell]
        for d in degrees
    ]


def _refuse_oversized(triples: Sequence[tuple[int, int, int]], limit: int) -> None:
    """Refuse a run before it builds any generator if one of its oracle regions exceeds ``limit``."""
    for g, n, k in triples:
        spec = Params(g, n, k)
        if spec.vanishes_by_adjunction:
            continue
        size = region_size(spec)
        if size > limit:
            raise BadParams(
                f"the region at g={g} n={n} k={k} has {size} generators, more than --max-generators {limit}"
            )


# -- compute ----------------------------------------------------------------


def cmd_compute(args) -> Output:
    g, n, k = args.g, args.n, args.k
    vanishes = Params(g, n, k).vanishes_by_adjunction
    oracle = closed = oracle_json = closed_json = None
    if args.method in ("oracle", "both"):
        _refuse_oversized([(g, n, k)], args.max_generators)
        if vanishes:
            # the group is zero for |k| >= g; report it without running the
            # pipeline, so parameter rectangles never crash
            oracle = GradedGroup.zero()
            oracle_json = _group_record(g, n, k, oracle, "adjunction", vanishes=True)
        else:
            result = oracle_hfplus(g, n, k)
            oracle = result.group
            oracle_json = _group_record(g, n, k, oracle, result.pipeline, result.gate, result.page)
    if args.method in ("closed", "both"):
        closed = theorem_answer(g, n, k)
        closed_json = _group_record(g, n, k, closed, "closed", vanishes=vanishes)

    match = None
    payload = oracle_json or closed_json
    if args.method == "both":
        match = oracle == closed
        payload = {
            "g": g,
            "n": n,
            "k": k,
            "oracle": oracle_json,
            "closed": closed_json,
            "match": match,
            "shift": closed.compare_up_to_shift(oracle).shift,
        }

    def lines() -> list[str]:
        header = f"(g={g}, n={n}, k={k})"
        if vanishes:
            return [f"{header} vanishes by adjunction: zero group"]
        out = []
        for title, group in (("oracle", oracle), ("closed form", closed)):
            if group is not None:
                out += [f"{header} {title}:", *_group_lines(group, "  ")]
        if match is not None:
            out.append(f"match: {str(match).lower()}")
        return out

    failure = f"compute: oracle/closed mismatch at g={g} n={n} k={k}" if match is False else None
    return Output(payload, lines, lambda: _comparison_rows((g, n, k), oracle, closed, match), failure)


# -- verify -------------------------------------------------------------------


def _parse_n_range(text: str) -> list[int]:
    """Parse '-2..2' (inclusive, 0 skipped) or a single integer."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise BadParams(f"--n {text!r} is neither an integer nor a range lo..hi") from None
    if not dots:
        if lo == 0:
            raise BadParams("twist power n must be nonzero")
        return [lo]
    if lo > hi:
        raise BadParams(f"empty n range {text!r}")
    values = [n for n in range(lo, hi + 1) if n != 0]
    if not values:
        raise BadParams(f"n range {text!r} holds no nonzero twist power")
    return values


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


def _entry(
    triple: tuple[int, int, int],
    oracle: GradedGroup | None,
    closed: GradedGroup | None,
    gate: str,
    wall_time: float,
) -> dict:
    """One report entry; a triple matches only when its gate passed."""
    g, n, k = triple
    shift = None
    if oracle is not None and closed is not None:
        shift = closed.compare_up_to_shift(oracle).shift
    return {
        "params": {"g": g, "n": n, "k": k},
        "oracle": None if oracle is None else oracle.to_json_dict(),
        "closed": None if closed is None else closed.to_json_dict(),
        "match": gate == "passed" and oracle == closed,
        "shift": shift,
        "gate": gate,
        "wall_time": wall_time,
    }


def _error_gate(exc: BaseException) -> str:
    return f"error: {type(exc).__name__}: {exc}"


def _verify_triple(task: tuple[int, int, int, bool, bool]) -> dict:
    """One report entry; an exception from either route fails this entry only."""
    g, n, k, corrupt, timing = task
    start = time.perf_counter()
    gate = "passed"
    oracle_group = closed = None
    try:
        oracle_group = oracle_hfplus(g, n, k, corrupt_d2=corrupt).group
    except GateFailure as exc:
        gate = f"failed: {exc}"
    except Exception as exc:
        gate = _error_gate(exc)
    try:
        closed = theorem_answer(g, n, k)
    except Exception as exc:
        if gate == "passed":
            gate = _error_gate(exc)
    elapsed = time.perf_counter() - start
    return _entry((g, n, k), oracle_group, closed, gate, elapsed if timing else 0.0)


def run_sweep(
    g_max: int,
    n_values: list[int],
    corrupt_d2: bool = False,
    timing: bool = False,
    max_generators: int | None = None,
) -> dict:
    """Oracle-vs-closed comparison over all admissible (g, n, k); order-stable.

    With ``max_generators``, the whole grid is checked against that region
    size before any triple starts.  If a worker process dies, the entries
    already returned are kept and every unfinished triple is recorded as
    failed.
    """
    if g_max < 2:
        raise BadParams(f"g-max {g_max} < 2")
    tasks = [
        (g, n, k, corrupt_d2, timing)
        for g in range(2, g_max + 1)
        for n in n_values
        for k in range(1, g)
    ]
    if max_generators is not None:
        _refuse_oversized([task[:3] for task in tasks], max_generators)
    workers = _worker_count()
    if workers == 1 or len(tasks) <= 1:
        entries = [_verify_triple(task) for task in tasks]
    else:
        entries = []
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for entry in pool.map(_verify_triple, tasks):
                    entries.append(entry)
        except BrokenProcessPool as exc:
            entries += [_entry(task[:3], None, None, _error_gate(exc), 0.0) for task in tasks[len(entries):]]
        except OSError:
            entries = [_verify_triple(task) for task in tasks]
    return {
        "schema": SCHEMA,
        "g_max": g_max,
        "n_values": n_values,
        "entries": entries,
    }


def _group_or_none(obj: dict | None) -> GradedGroup | None:
    return None if obj is None else GradedGroup.from_json_dict(obj)


def _verify_rows(entries: list[dict]) -> list[list]:
    rows = []
    for entry in entries:
        params = entry["params"]
        triple = (params["g"], params["n"], params["k"])
        oracle, closed = _group_or_none(entry["oracle"]), _group_or_none(entry["closed"])
        rows.extend(_comparison_rows(triple, oracle, closed, entry["match"]))
    return rows


def cmd_verify(args) -> Output:
    n_values = _parse_n_range(args.n)
    if args.emit:
        folder = os.path.dirname(args.emit) or "."
        if not os.path.isdir(folder):
            raise BadParams(f"cannot write the report to {args.emit}: no directory {folder}")
        if os.path.isdir(args.emit):
            raise BadParams(f"cannot write the report to {args.emit}: it is a directory")
    report = run_sweep(
        args.g_max, n_values, corrupt_d2=args.corrupt_d2, timing=args.timing, max_generators=args.max_generators
    )
    entries = report["entries"]
    failure = None
    for entry in entries:
        if not entry["match"]:
            p = entry["params"]
            failure = f"verify: first mismatch at g={p['g']} n={p['n']} k={p['k']} (gate: {entry['gate']})"
            break
    out = Output(report, rows=lambda: _verify_rows(entries), failure=failure)
    if not args.emit:
        return out
    with open(args.emit, "w") as handle:
        handle.write(_render(out, args.format))
    good = sum(1 for entry in entries if entry["match"])
    summary = f"verify: {good}/{len(entries)} triples match; report written to {args.emit}"
    return Output(lines=lambda: [summary], failure=failure)


# -- tables / xgd / corollary / degshift ---------------------------------------


def cmd_tables(args) -> Output:
    table = reference_tables(args.name, args.n, top=args.top)
    payload = {"table": args.name, "n": args.n}
    if args.name in ("hfplus_Z", "hfplus_Mn"):
        payload["top"] = args.top
    payload.update(table.to_json_dict())

    def lines() -> list[str]:
        out = [f"table {args.name} at n={args.n}"]
        if isinstance(table, FilteredGroup):
            for j, group in reversed(table.levels):
                out.append(f"filtration j={j}:")
                out.extend(_group_lines(group, "  "))
        else:
            out.extend(_group_lines(table, "  "))
        return out

    return Output(payload, lines)


def cmd_xgd(args) -> Output:
    payload = {"g": args.g, "d": args.d, "left": args.left, "homology": args.homology}
    title = "X module"
    failure = None
    if args.homology:
        # the closed form for the same page refuses a (g, d) outside its
        # domain; it and the size check run before any basis is built
        formula = x_homology_formula(args.g, args.d, left=args.left)
        size = x_ranks(args.g, args.d).total_rank()
        if size > MAX_GENERATORS:
            raise BadParams(f"X(g={args.g}, d={args.d}) has {size} elements, more than {MAX_GENERATORS}")
        group = build_x_complex(args.g, args.d, left=args.left).homology()
        # a mismatch here is a library bug
        payload["matches_formula"] = group == formula
        title = "homology of (X, d1)"
        if not payload["matches_formula"]:
            failure = f"xgd: homology/formula mismatch at g={args.g} d={args.d}"
    else:
        group = x_ranks(args.g, args.d)
    payload.update(group.to_json_dict())

    def lines() -> list[str]:
        out = [f"{title} at g={args.g}, d={args.d}" + (" (left)" if args.left else "")]
        out.extend(_group_lines(group, "  "))
        if args.homology:
            out.append(f"matches formula: {str(payload['matches_formula']).lower()}")
        return out

    return Output(payload, lines, failure=failure)


def cmd_corollary(args) -> Output:
    g, n = args.g, args.n
    # the corollary's genus check speaks for the level; theorem_answer would
    # refuse g = 2 for its k = 0 instead
    corollary = corollary_answer(g, n)
    theorem = theorem_answer(g, n, g - 2)
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
    payload = {
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

    def lines() -> list[str]:
        return [
            f"(g={g}, n={n}, k={g - 2}) closed form:",
            *_group_lines(theorem, "  "),
            f"reference ({kind} cohomology) shift: {shift}",
            f"match: {str(match).lower()}",
        ]

    failure = None if match else f"corollary: mismatch at g={g} n={n}"
    return Output(payload, lines, failure=failure)


def cmd_degshift(args) -> Output:
    value = degree_shift(args.n, args.k, args.x)
    argmax = degree_shift_argmax(args.n, args.k)
    payload = {
        "n": args.n,
        "k": args.k,
        "x": args.x,
        "value": fraction_json(value),
        "argmax": argmax,
    }
    return Output(payload, lambda: [f"deg(n={args.n}, k={args.k}, x={args.x}) = {value}; argmax = {argmax}"])


# -- parser ---------------------------------------------------------------------

# lets bare values like -2..2 through; argparse would read them as options
_NEGATIVE_VALUE = re.compile(r"^-\d")


def _command(sub, name: str, formats: tuple[str, ...], help: str, ints: tuple[str, ...] = ()) -> argparse.ArgumentParser:
    """Add subcommand ``name`` with its ``--format`` choices (default: table,
    where offered) and the required integer options ``--<ints>``."""
    parser = sub.add_parser(name, help=help)
    parser._negative_number_matcher = _NEGATIVE_VALUE
    default = "table" if "table" in formats else formats[0]
    parser.add_argument("--format", choices=formats, default=default)
    for option in ints:
        parser.add_argument(f"--{option}", type=int, required=True)
    return parser


def _max_generators_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-generators",
        type=int,
        default=MAX_GENERATORS,
        dest="max_generators",
        help=f"refuse (exit 2) an oracle region larger than this, before building it (default {MAX_GENERATORS})",
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="mtfloer",
        description="Exact Floer groups of separating-twist mapping tori, two ways.",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", required=True)

    compute = _command(sub, "compute", ("json", "table", "csv"), "one (g, n, k) group, by either or both methods", ("g", "n", "k"))
    compute.add_argument("--method", choices=("oracle", "closed", "both"), default="both")
    _max_generators_option(compute)

    verify = _command(sub, "verify", ("json", "csv"), "sweep oracle vs closed form over a grid")
    verify.add_argument("--g-max", type=int, default=3, dest="g_max")
    verify.add_argument("--n", default="-2..2", help="single value or inclusive range lo..hi (0 skipped)")
    verify.add_argument("--emit", help="write the report to this path")
    verify.add_argument("--timing", action="store_true", help="record real wall times (non-reproducible output)")
    verify.add_argument("--corrupt-d2", action="store_true", dest="corrupt_d2", help="test hook: drop every page-two arrow")
    _max_generators_option(verify)

    tables = _command(sub, "tables", ("json", "table"), "dump a bundled reference table", ("n",))
    tables.add_argument("name", choices=("hfk_M1", "hfk_Mn", "hf_hat_Mn", "hfplus_Z", "hfplus_Mn"))
    tables.add_argument("--top", type=int, default=6, help="truncation slot for the tower tables")

    xgd = _command(sub, "xgd", ("json", "table"), "the truncated tower module X(g, d), or its page-one homology", ("g", "d"))
    xgd.add_argument("--homology", action="store_true")
    xgd.add_argument("--left", action="store_true", help="left-handed twist convention")

    _command(sub, "corollary", ("json", "table"), "the k = g-2 group three ways", ("g", "n"))
    degshift = _command(sub, "degshift", ("json", "table"), "exact degree-shift values and maximizer", ("n", "k"))
    degshift.add_argument("--x", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up on each call, so a command patched on the module is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        out = command(args)
    except BadParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownTable as exc:
        print(f"error: unknown table {exc}", file=sys.stderr)
        return 2
    except GateFailure as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return 3
    # verify --emit has written its report; stdout gets the summary line
    sys.stdout.write(_render(out, "table" if getattr(args, "emit", None) else args.format))
    if out.failure:
        print(out.failure, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
