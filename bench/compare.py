"""Check that two traced runs give identical exact counts.

Usage:
    python3 bench/compare.py RESULT_A.json RESULT_B.json

Both files are results of ``bench/run.py --trace 1`` for the same workload
and seed. The counts (``*.calls``, ``*_detector_calls``,
``inference.stage2_fallbacks``) depend only on the code and the inputs, so
two runs of one commit must agree exactly; between two commits they are
compared as counts, never as speed-ups. Exits 1 if any count differs.
"""

from __future__ import annotations

import json
import sys

from run import EXACT_COUNTS


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path) as handle:
            results.append(json.load(handle))
    a, b = results
    if not (a["trace"] == b["trace"] == 1):
        print("both results must come from traced runs (--trace 1)", file=sys.stderr)
        return 2
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print("results are for different workloads or seeds", file=sys.stderr)
        return 2
    differ = 0
    for key in EXACT_COUNTS:
        va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
        mark = "same" if va == vb else "DIFFERENT"
        differ += va != vb
        print(f"  {key:34s} {va:>12} {vb:>12}  {mark}")
    print(f"{a['workload']} seed {a['seed']}: {len(EXACT_COUNTS) - differ} of "
          f"{len(EXACT_COUNTS)} exact counts identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
