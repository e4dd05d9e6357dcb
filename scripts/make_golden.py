#!/usr/bin/env python3
"""Regenerate golden/sweep_g4_n3.json, the committed sweep report.

The byte-comparison test in tests/test_cli.py pins the verify pipeline's
output format; rerun this after any deliberate format change and commit the
result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# this checkout's package, whether or not one is installed
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from mtfloer.cli import _dumps, run_sweep

OUT = ROOT / "golden" / "sweep_g4_n3.json"


def main() -> None:
    report = run_sweep(4, [-3, -2, -1, 1, 2, 3])
    mismatches = [e for e in report["entries"] if not e["match"]]
    if mismatches:
        raise SystemExit(f"refusing to freeze a failing sweep: {mismatches[0]['params']}")
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(_dumps(report))
    print(f"wrote {OUT} ({len(report['entries'])} entries, all matching)")


if __name__ == "__main__":
    main()
