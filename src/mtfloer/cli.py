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
from fractions import Fraction
from math import floor, log10
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .closed_form import (
    check_x_homology_params,
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
from .knot_model import FilteredGroup, build_x_complex, oracle_hfplus, reference_tables, run_count, surface_key, x_run_count
from .params import Params

SCHEMA = "1"

# The most runs (``knot_model.run_count``) in an oracle region that compute
# and verify start, counted at |k| = 1, where a genus's region is largest,
# and in X(g, g - 1) that `xgd --homology` builds.  A circle run holds every
# label, so n does not count; a run's cost grows with g, so the bound caps g
# (g <= 259).  On 2 CPUs the costliest admitted inputs take 4.0-4.5 s / 68 MB
# (compute --g 259 --n -1 --k 1) and 21.8 s / 125 MB (xgd --g 446 --d 445
# --homology, four blocks in every run).
MAX_RUNS = 100_000

# The most triples that verify sweeps, counted from g-max and the n range
# before either is listed.  Every entry is held until the sweep ends, so
# memory grows with the count: on 2 CPUs a serial sweep of 100,000 triples
# at g = 2 (--n 1..100000) takes 7.8-8.5 s / 186 MB, and one of 16,000
# triples at g <= 5 takes 1.7-2.2 s / 55 MB.
MAX_TRIPLES = 100_000

# The most degrees that tables prints of a tower table (slots 0 .. --top) and
# that xgd without --homology prints (degrees g - 2d .. g), refused before
# the group is built: each grows linearly, and on 2 CPUs 10^5 tower slots
# take 0.38 s / 58 MB.
MAX_DEGREES = 100_000


# -- output -------------------------------------------------------------------


class Output(NamedTuple):
    """What a command computed, in every form ``main`` can print it.

    ``payload`` is printed as JSON, the rows that ``rows()`` yields as CSV
    and the lines that ``lines()`` returns as the table; each of the two is
    built only when its format is asked for, and the rows one at a time as
    they are written.  ``failure`` goes to stderr and makes the exit code 3.
    ``verify`` has no table format: its ``lines()`` hold the summary that
    ``--emit`` prints in place of the report.
    """

    payload: object = None
    lines: Callable[[], Sequence[str]] = tuple
    rows: Callable[[], Iterable[list]] = tuple
    failure: str | None = None


_quote = json.encoder.encode_basestring_ascii
_INF = float("inf")
# The pending JSON parts go to the sink after a list item once they pass
# this many, so the writer holds about one report entry, whatever the
# report's length.
_FLUSH_PARTS = 256
_CSV_HEADER = ["g", "n", "k", "degree", "rank_oracle", "rank_closed", "match"]


def _dump(obj, write: Callable[[str], object]) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline to ``write``, as it goes.

    With ``indent`` set, ``json.dumps`` runs the pure-Python generator
    encoder; this writer collects parts in one list and hands them to
    ``write`` a few hundred at a time.  It takes dicts with str keys,
    lists, tuples, str, int, float, bool and None, by exact type; any
    other value raises TypeError, as does a non-str key, once the text
    before it has been written.
    """
    parts: list[str] = []
    try:
        _write(obj, parts, "\n", write)
    except RecursionError:
        raise ValueError("circular or too deeply nested value") from None
    parts.append("\n")
    write("".join(parts))


def _dumps(obj) -> str:
    """The text ``_dump`` writes, as one string."""
    buf = io.StringIO()
    _dump(obj, buf.write)
    return buf.getvalue()


def _write(obj, parts: list[str], newline: str, write: Callable[[str], object]) -> None:
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
            value = obj[key]
            # the report's degree, rank and gate leaves, without a call each
            leaf = type(value)
            if leaf is int:
                parts += (opener, _quote(key), ": ", int.__repr__(value))
            elif leaf is str:
                parts += (opener, _quote(key), ": ", _quote(value))
            else:
                parts += (opener, _quote(key), ": ")
                _write(value, parts, inner, write)
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
            _write(item, parts, inner, write)
            opener = "," + inner
            if len(parts) > _FLUSH_PARTS:
                write("".join(parts))
                parts.clear()
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


def _render(out: Output, fmt: str, stream: TextIO) -> None:
    """Write ``out`` to ``stream`` in ``fmt``; JSON and CSV go out as they are made, never held whole."""
    if fmt == "json":
        _dump(out.payload, stream.write)
    elif fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        writer.writerows(out.rows())
    else:
        stream.write("".join(line + "\n" for line in out.lines()))


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


def _comparison_rows(triple: tuple[int, int, int], oracle: dict | None, closed: dict | None, match: bool | None) -> list[list]:
    """One CSV row per degree of either group record (``to_json_dict``); a missing group leaves its cells empty."""
    ranks = [
        None if group is None else {row["degree"]: row["rank"] for row in group["degrees"]} for group in (oracle, closed)
    ]
    degrees = sorted({d for by_degree in ranks if by_degree is not None for d in by_degree})
    match_cell = "" if match is None else str(match).lower()
    return [
        [*triple, d, *("" if by_degree is None else by_degree.get(d, 0) for by_degree in ranks), match_cell]
        for d in degrees
    ]


def _refuse_oversized(g: int) -> None:
    """Refuse a run before it builds anything if the region at genus ``g``, its largest, passes ``MAX_RUNS`` at |k| = 1."""
    if (runs := run_count(g - 2)) > MAX_RUNS:
        raise BadParams(f"the region at g={g} |k|=1 has {runs} runs, more than {MAX_RUNS}")


def _refuse_grid(g_max: int, n_count: int) -> None:
    """Refuse a sweep before it lists a triple: g-max below 2, past ``MAX_RUNS``, or a grid of more than ``MAX_TRIPLES``.

    The grid holds g - 1 levels k at each genus g = 2 .. g-max for each of
    the ``n_count`` twist powers.
    """
    if g_max < 2:
        raise BadParams(f"g-max {g_max} < 2")
    _refuse_oversized(g_max)
    if (triples := n_count * g_max * (g_max - 1) // 2) > MAX_TRIPLES:
        _refuse_long("the triple count of the grid", [triples])
        raise BadParams(f"the grid up to g={g_max} has {triples} triples, more than {MAX_TRIPLES}")


def _refuse_wide(what: str, count: int) -> None:
    """Refuse ``what`` before it is built if it has more than ``MAX_DEGREES`` degrees."""
    if count > MAX_DEGREES:
        _refuse_long(f"the degree count of {what}", [count])
        raise BadParams(f"{what} has {count} degrees, more than {MAX_DEGREES}")


def _digit_limit() -> int:
    """The most digits ``str`` and ``int.__repr__`` print of an int: ``sys.get_int_max_str_digits()``, 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(text: str, limit: int) -> BadParams:
    return BadParams(f"{text}; Python prints at most {limit} (PYTHONINTMAXSTRDIGITS sets the limit, 0 lifts it)")


def _refuse_unprintable(g: int, d: int, n: int = 1) -> None:
    """Refuse, before any rank is computed, ranks with more digits than Python prints.

    Every rank that compute, verify and xgd print at genus g, tower depth
    d and twist power n is at most |n| min(4^g, (2g + 1)^(d + 1)): a rank
    of X(g, d) is a sum of C(2g, r) over r <= d of one parity, at most
    2^(2g - 1) and (2g + 1)^d, and the theorem's group adds at one degree
    four such ranks of the tower one genus down, one C(2g - 2, d) and
    2(|n| - 1) more.  At d = 0 every rank is C(2g - 2, 0) = 1, which n
    does not reach, so |n| is charged from d = 1 on.  A negative d is a
    vanishing level, whose group is zero.  The bound's logarithm is summed
    in floats, and exactly once g or d + 1 is past what a float holds.
    """
    limit = _digit_limit()
    if not limit or g < 1 or d < 0:  # no limit, a genus the command refuses itself, or a zero group
        return

    def digits(real: type) -> int:
        return floor(real(log10(abs(n) if d else 1)) + min(g * real(log10(4)), (d + 1) * real(log10(2 * g + 1)))) + 1

    try:
        most = digits(float)
    except OverflowError:
        most = digits(Fraction)
    if most > limit:
        raise _too_long(f"the ranks at g={g} d={d} |n|={abs(n)} may have {most} digits", limit)


def _refuse_long(what: str, numbers: Iterable[int]) -> None:
    """Refuse, before anything is printed, output with a number of more digits than Python prints."""
    limit = _digit_limit()
    if limit and any(abs(x) >= 10**limit for x in numbers):
        raise _too_long(f"{what} has more than {limit} digits", limit)


# -- compute ----------------------------------------------------------------


def cmd_compute(args) -> Output:
    g, n, k = args.g, args.n, args.k
    spec = Params(g, n, k)
    _refuse_unprintable(g, spec.d, n)
    vanishes = spec.vanishes_by_adjunction
    oracle = closed = oracle_json = closed_json = None
    if args.method in ("oracle", "both"):
        if vanishes:
            # the group is zero for |k| >= g; report it without running the
            # pipeline, so parameter rectangles never crash
            oracle = GradedGroup.zero()
            oracle_json = _group_record(g, n, k, oracle, "adjunction", vanishes=True)
        else:
            _refuse_oversized(g)
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
    return Output(payload, lines, lambda: _comparison_rows((g, n, k), oracle_json, closed_json, match), failure)


# -- verify -------------------------------------------------------------------


def _parse_n_range(text: str) -> tuple[int, int]:
    """Parse '-2..2' (inclusive, 0 to be skipped) or a single integer N (N..N) into its ends, listing nothing."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise BadParams(f"--n {text!r} is neither an integer nor a range lo..hi") from None
    if not dots and lo == 0:
        raise BadParams("twist power n must be nonzero")
    if lo > hi:
        raise BadParams(f"empty n range {text!r}")
    if lo == hi == 0:
        raise BadParams(f"n range {text!r} holds no nonzero twist power")
    return lo, hi


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


def _verify_triple(triple: tuple[int, int, int], corrupt: bool, timing: bool, shared: dict) -> dict:
    """One report entry; an exception from either route fails this entry only.

    ``shared`` holds the surface page of the triple's group once a triple
    of the group has built it (``oracle_hfplus``).
    """
    g, n, k = triple
    start = time.perf_counter()
    gate = "passed"
    oracle_group = closed = None
    try:
        oracle_group = oracle_hfplus(g, n, k, corrupt_d2=corrupt, shared=shared).group
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


def _verify_group(task: tuple[list[tuple[int, int, int]], bool, bool]) -> list[dict]:
    """The report entries of one group of triples with one ``surface_key``, in the group's order.

    The group's surface page is built by its first triple, whose wall time
    it joins, and dropped when the group ends.
    """
    triples, corrupt, timing = task
    shared: dict = {}
    return [_verify_triple(triple, corrupt, timing, shared) for triple in triples]


def _process_pool(workers: int):
    """A pool of ``workers`` processes.

    ``concurrent.futures`` loads ``multiprocessing`` and more; it is
    imported here, so only a sweep that starts workers pays for it.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def run_sweep(
    g_max: int,
    n_values: list[int],
    corrupt_d2: bool = False,
    timing: bool = False,
) -> dict:
    """Oracle-vs-closed comparison over all admissible (g, n, k); order-stable.

    The grid is checked against ``MAX_RUNS`` and ``MAX_TRIPLES`` before a
    triple is listed.
    The unit of work is a group of the triples that share a surface page
    (``knot_model.surface_key``), so each page is built once a call and
    one group's page is held at a time per process; the report lists the
    triples in (g, n, k) order all the same.  If a worker
    process dies, the entries of the groups already returned are kept and
    every triple of an unfinished group is recorded as failed.
    """
    _refuse_grid(g_max, len(n_values))
    triples = [(g, n, k) for g in range(2, g_max + 1) for n in n_values for k in range(1, g)]
    groups: dict[tuple, list[tuple[int, int, int]]] = {}
    for triple in triples:
        groups.setdefault(surface_key(Params(*triple)), []).append(triple)
    tasks = [(group, corrupt_d2, timing) for group in groups.values()]
    done: dict[tuple[int, int, int], dict] = {}
    workers = _worker_count()
    if workers == 1 or len(tasks) <= 1:
        results = map(_verify_group, tasks)
    else:
        from concurrent.futures.process import BrokenProcessPool

        results = []
        try:
            with _process_pool(workers) as pool:
                for entries in pool.map(_verify_group, tasks):
                    results.append(entries)
        except BrokenProcessPool as exc:
            done = {triple: _entry(triple, None, None, _error_gate(exc), 0.0) for triple in triples}
        except OSError:
            results = map(_verify_group, tasks)
    for (group, _, _), entries in zip(tasks, results):
        done.update(zip(group, entries))
    return {
        "schema": SCHEMA,
        "g_max": g_max,
        "n_values": n_values,
        "entries": [done[triple] for triple in triples],
    }


def _verify_rows(entries: list[dict]) -> Iterator[list]:
    """The CSV rows of the report, made one entry at a time as they are written."""
    for entry in entries:
        params = entry["params"]
        triple = (params["g"], params["n"], params["k"])
        yield from _comparison_rows(triple, entry["oracle"], entry["closed"], entry["match"])


def cmd_verify(args) -> Output:
    lo, hi = _parse_n_range(args.n)
    _refuse_unprintable(args.g_max, args.g_max - 2, max(abs(lo), abs(hi)))
    if args.emit:
        folder = os.path.dirname(args.emit) or "."
        if not os.path.isdir(folder):
            raise BadParams(f"cannot write the report to {args.emit}: no directory {folder}")
        if os.path.isdir(args.emit):
            raise BadParams(f"cannot write the report to {args.emit}: it is a directory")
    _refuse_grid(args.g_max, hi - lo + 1 - (lo <= 0 <= hi))  # the nonzero n in lo..hi
    n_values = [n for n in range(lo, hi + 1) if n]
    report = run_sweep(args.g_max, n_values, corrupt_d2=args.corrupt_d2, timing=args.timing)
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
        _render(out, args.format, handle)
    good = sum(1 for entry in entries if entry["match"])
    summary = f"verify: {good}/{len(entries)} triples match; report written to {args.emit}"
    return Output(lines=lambda: [summary], failure=failure)


# -- tables / xgd / corollary / degshift ---------------------------------------


def cmd_tables(args) -> Output:
    tower = args.name in ("hfplus_Z", "hfplus_Mn")
    if tower:
        _refuse_wide(f"{args.name} up to slot {args.top}", args.top + 1)
    table = reference_tables(args.name, args.n, top=args.top)
    groups = [group for _, group in table.levels] if isinstance(table, FilteredGroup) else [table]
    _refuse_long(f"a rank of {args.name}", (rank for group in groups for _, rank, _ in group.entries))
    payload = {"table": args.name, "n": args.n}
    if tower:
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
    _refuse_unprintable(args.g, args.d)
    payload = {"g": args.g, "d": args.d, "left": args.left, "homology": args.homology}
    title = "X module"
    failure = None
    if args.homology:
        # the formula's domain, then the run bound at X(g, g - 1), before any rank or page
        check_x_homology_params(args.g, args.d)
        if (runs := x_run_count(args.g - 1)) > MAX_RUNS:
            raise BadParams(f"X(g={args.g}, d={args.g - 1}) has {runs} runs, more than {MAX_RUNS}")
        formula = x_homology_formula(args.g, args.d, left=args.left)
        group = build_x_complex(args.g, args.d, left=args.left).homology()
        # a mismatch here is a library bug
        payload["matches_formula"] = group == formula
        title = "homology of (X, d1)"
        if not payload["matches_formula"]:
            failure = f"xgd: homology/formula mismatch at g={args.g} d={args.d}"
    else:
        _refuse_wide(f"X(g={args.g}, d={args.d})", 2 * args.d + 1)
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
    groups = (theorem, corollary, reference)
    _refuse_long("a rank of the k=g-2 groups", (rank for group in groups for _, rank, _ in group.entries))
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
    _refuse_long("the degree shift", (value.numerator, value.denominator))
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

    verify = _command(sub, "verify", ("json", "csv"), "sweep oracle vs closed form over a grid")
    verify.add_argument("--g-max", type=int, default=3, dest="g_max")
    verify.add_argument("--n", default="-2..2", help="single value or inclusive range lo..hi (0 skipped)")
    verify.add_argument("--emit", help="write the report to this path")
    verify.add_argument("--timing", action="store_true", help="record real wall times (non-reproducible output)")
    verify.add_argument("--corrupt-d2", action="store_true", dest="corrupt_d2", help="test hook: drop every page-two arrow")

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
    _render(out, "table" if getattr(args, "emit", None) else args.format, sys.stdout)
    if out.failure:
        print(out.failure, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
