#!/usr/bin/env python3
"""Time the oracle at k = 1 genus by genus, each run in a fresh process.

Usage: python3 scripts/genus_frontier.py G_LO G_HI [--json] [--max-generators N]

For each genus G from G_LO to G_HI this runs

    python -m mtfloer compute --g G --n 3 --k 1 --format json [--max-generators N]

against this checkout's src/ and prints its wall seconds, its peak RSS, its
region size (``knot_model.region_size``), the peak RSS per region generator
in kB (1 kB = 1000 bytes) and whether the oracle matched the closed form.
Each compute runs under its own measuring process, so the peak read there
with resource.getrusage(RUSAGE_CHILDREN) belongs to that one run alone.  A run
that exits nonzero (a refused size, a failed gate) prints its exit code and
makes the script exit 1.  ``--max-generators`` is handed to each compute,
so a region past the default limit can be measured.  Standard library only.
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


def measure(g: int, max_generators: int | None) -> dict:
    """Run one compute as this process's only child and measure it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["compute", "--g", str(g), "--n", "3", "--k", "1", "--format", "json"]
    if max_generators is not None:
        argv += ["--max-generators", str(max_generators)]
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


def region_size(g: int) -> int:
    """The number of generators of the region that ``measure(g)`` computes over."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from mtfloer.knot_model import region_size
    from mtfloer.params import Params

    return region_size(Params(g, 3, 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("g_lo", type=int)
    parser.add_argument("g_hi", type=int)
    parser.add_argument("--json", action="store_true", help="one JSON object per genus")
    parser.add_argument("--max-generators", type=int, help="passed to each compute (default: its own limit)")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)  # the measuring process
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.g_lo, args.max_generators)))
        return 0

    if not args.json:
        print(f"{'g':>3} {'wall_s':>9} {'peak_rss_mb':>12} {'region_size':>12} {'kb_per_gen':>10}  match")
    ok = True
    for g in range(args.g_lo, args.g_hi + 1):
        child = [sys.executable, str(Path(__file__).resolve()), str(g), str(g), "--one"]
        if args.max_generators is not None:
            child += ["--max-generators", str(args.max_generators)]
        row = json.loads(subprocess.run(child, capture_output=True, text=True, check=True).stdout)
        size = row["region_size"] = region_size(g)
        # a refused run never built its region, so its peak says nothing per generator
        per_gen = round(row["peak_rss_mb"] * 1024 * 1024 / 1000 / size, 3) if row["exit"] == 0 else None
        row["kb_per_generator"] = per_gen
        ok = ok and row["match"] is True
        if args.json:
            print(json.dumps(row), flush=True)
        else:
            outcome = row["match"] if row["exit"] == 0 else f"exit {row['exit']}"
            per_gen_text = "-" if per_gen is None else f"{per_gen:.3f}"
            print(
                f"{g:>3} {row['wall_s']:>9.3f} {row['peak_rss_mb']:>12.1f} {size:>12} {per_gen_text:>10}  {outcome}",
                flush=True,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
