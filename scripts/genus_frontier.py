#!/usr/bin/env python3
"""Time the oracle at k = 1 genus by genus, each run in a fresh process.

Usage: python3 scripts/genus_frontier.py G_LO G_HI [--json]

For example ``genus_frontier.py 10 60``.  For each genus G from G_LO to
G_HI this runs

    python -m mtfloer compute --g G --n 3 --k 1 --format json

against this checkout's src/ and prints its wall seconds, its peak RSS, its
run count (``knot_model.run_count``, what the oracle's cost follows), its
region size (``knot_model.region_size``) and whether the oracle matched the
closed form.  Each compute runs under its own measuring process, so the
peak read there with resource.getrusage(RUSAGE_CHILDREN) belongs to that
one run alone.  A run that exits nonzero (a refused input, a failed gate)
prints its exit code and makes the script exit 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure(g: int) -> dict:
    """Run one compute as this process's only child and measure it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["compute", "--g", str(g), "--n", "3", "--k", "1", "--format", "json"]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "mtfloer", *argv], env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    match = json.loads(done.stdout)["match"] if done.returncode == 0 else None
    return {
        "g": g,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(peak_kib / 1024, 1),
        "match": match,
        "exit": done.returncode,
    }


def counts(g: int) -> tuple[int, int]:
    """The runs and the generators of the region that ``measure(g)`` computes over."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from mtfloer.knot_model import region_size, run_count
    from mtfloer.params import Params

    spec = Params(g, 3, 1)
    return run_count(spec.d), region_size(spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("g_lo", type=int)
    parser.add_argument("g_hi", type=int)
    parser.add_argument("--json", action="store_true", help="one JSON object per genus")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)  # the measuring process
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.g_lo)))
        return 0

    if not args.json:
        print(f"{'g':>3} {'wall_s':>9} {'peak_rss_mb':>12} {'runs':>7} {'region_size':>40}  match")
    ok = True
    for g in range(args.g_lo, args.g_hi + 1):
        child = [sys.executable, str(Path(__file__).resolve()), str(g), str(g), "--one"]
        row = json.loads(subprocess.run(child, capture_output=True, text=True, check=True).stdout)
        row["runs"], row["region_size"] = counts(g)
        ok = ok and row["match"] is True
        if args.json:
            print(json.dumps(row), flush=True)
        else:
            outcome = row["match"] if row["exit"] == 0 else f"exit {row['exit']}"
            print(
                f"{g:>3} {row['wall_s']:>9.3f} {row['peak_rss_mb']:>12.1f} {row['runs']:>7} {row['region_size']:>40}  {outcome}",
                flush=True,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
