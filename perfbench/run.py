"""Benchmark of the mtfloer oracle, closed form and verify sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's ``src/`` and driven through ``mtfloer.cli.main`` in this one
process, round after round of the workload's fixed grid, until ``--seconds``
have passed.  Every output is checked against facts computed apart from the
program (see ``checks.py``), outside the timed region.  The last line of
stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced rounds alternate and the metrics are per-layer self
times and counts from the traced rounds, plus the tracing overhead.  See
README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0, help="recorded in the result file; every grid is fixed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program(workload: workloads.Workload):
    """Import `mtfloer.cli` from this checkout, in the workload's environment."""
    src = ROOT / "src"
    if not (src / "mtfloer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under {src}; run from a checkout of the repository")
    # the serial sweep: the process pool would measure the scheduler of a
    # shared machine, not the program (README.md)
    os.environ["MTFLOER_THREADS"] = "1"
    # read once, when mtfloer.homology is imported
    if workload.snf_verify:
        os.environ["MTFLOER_SNF_VERIFY"] = "1"
    else:
        os.environ.pop("MTFLOER_SNF_VERIFY", None)
    sys.path.insert(0, str(src))
    import mtfloer.cli

    if Path(mtfloer.cli.__file__).resolve().parent != (src / "mtfloer").resolve():
        raise SystemExit(f"perfbench: imported mtfloer from {mtfloer.cli.__file__}, not from {src}")
    return mtfloer.cli


def setup_seconds(workload_name: str) -> float:
    """Process start to the first timed operation, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name, "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe exited {child.returncode} after {line!r}")
    return elapsed


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_round(cli, workload):
    """One pass over the grid: (wall s, CPU s, outcomes)."""
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    outcomes = [workloads.run_op(cli, op) for op in workload.ops]
    return time.perf_counter() - wall0, cpu_seconds() - cpu0, outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.build(args.workload, OUT_DIR)
    cli = load_program(workload)
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else [setup_seconds(workload.name) for _ in range(SETUP_PROBES)]

    tracer = spans.Tracer()
    plain: list[tuple[float, float]] = []  # (wall s, CPU s) per untraced round
    traced: list[tuple[float, dict, dict]] = []  # (wall s, self times, counts) per traced round
    attempted = failed = 0
    problems: list[str] = []
    first_closed: dict | None = None
    start = time.perf_counter()
    while True:
        # with --trace 1, rounds alternate untraced, traced, untraced, ...
        if args.trace and len(plain) > len(traced):
            tracer.reset()
            with spans.instrumented(tracer):
                wall, _, outcomes = run_round(cli, workload)
            traced.append((wall, dict(tracer.self_s), dict(tracer.counts)))
        else:
            wall, cpu, outcomes = run_round(cli, workload)
            plain.append((wall, cpu))

        closed: dict = {}
        for op, outcome in zip(workload.ops, outcomes):
            checked = workloads.check_op(op, outcome)
            attempted += len(op.triples)
            failed += checked.failed
            problems += checked.problems
            closed.update(checked.closed)
        if first_closed is None:
            first_closed = closed
        elif closed != first_closed:
            problems.append("a round's outputs differ from the first round's")

        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or traced):
            break

    problems += workloads.check_conjugation(cli.theorem_answer, first_closed)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(plain, traced)
        write_trace(workload.name, tracer.spans)
    else:
        metrics = end_to_end_metrics(workload, plain, setups)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace)
    (OUT_DIR / f"result-{workload.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def end_to_end_metrics(workload, rounds, setups) -> dict:
    walls = [wall for wall, _ in rounds]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    values = {
        "wall_s": (statistics.median(walls), "s"),
        "triples_per_s": (workload.triples * len(walls) / sum(walls), "1/s"),
        "cpu_s": (statistics.median(cpu for _, cpu in rounds), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(
        f"{workload.name}: {len(walls)} rounds of {workload.triples} triples, "
        f"round wall min/median/max {min(walls):.4f}/{statistics.median(walls):.4f}/{max(walls):.4f} s, "
        f"set-up probes {', '.join(f'{s:.4f}' for s in setups)} s",
        file=sys.stderr,
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def layer_metrics(plain, traced) -> dict:
    traced_wall = statistics.median(wall for wall, _, _ in traced)
    plain_wall = statistics.median(wall for wall, _ in plain)
    metrics = {}
    for name in spans.SPAN_NAMES:
        value = statistics.median(self_s.get(name, 0.0) for _, self_s, _ in traced)
        metrics[f"{name}_s"] = {"value": value, "unit": "s"}
    for name in spans.COUNT_NAMES:
        value = statistics.median_low(counts.get(name, 0) for _, _, counts in traced)
        metrics[name] = {"value": value, "unit": "count"}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}

    print(f"{len(plain)} untraced rounds, {len(traced)} traced; self time per span, share of traced wall:", file=sys.stderr)
    for name in sorted(spans.SPAN_NAMES, key=lambda n: -metrics[f"{n}_s"]["value"]):
        value = metrics[f"{name}_s"]["value"]
        print(f"  {name + '_s':34} {value:10.4f} s  {100 * value / traced_wall:5.1f}%", file=sys.stderr)
    print(f"  {'untraced wall':34} {plain_wall:10.4f} s; overhead {traced_wall - plain_wall:+.4f} s", file=sys.stderr)
    return metrics


def write_trace(workload_name: str, round_spans) -> None:
    """The spans of the last traced round, times relative to its first span."""
    origin = round_spans[0][1] if round_spans else 0.0
    rows = [
        {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
        for name, start, end, parent in round_spans
    ]
    (OUT_DIR / f"trace-{workload_name}.json").write_text(json.dumps({"workload": workload_name, "spans": rows}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
