#!/usr/bin/env python3
"""Determinism self-check of the traced counters.

    python3 perfbench/determinism.py --workload circle --seed 1

Runs one traced pass of the workload twice with the same seed and once with
the next seed.  The two same-seed runs must give identical counters (see
``run.COUNTERS``).  The counters of both seeds are written side by side to
``perfbench/out/determinism-<workload>-seed<seed>.json``.  Exits 1 when the
same-seed counters differ.
"""

import argparse
import json
import subprocess
import sys

from run import COUNTERS, HERE, OUT, ROOT


def traced_counters(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTERS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    first = traced_counters(args.workload, args.seed)
    repeat = traced_counters(args.workload, args.seed)
    other = traced_counters(args.workload, args.seed + 1)
    mismatched = sorted(n for n in COUNTERS if first[n] != repeat[n])
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "identical": not mismatched,
        "mismatched": mismatched,
        "counters": {n: {"seed": first[n], "repeat": repeat[n],
                         "next_seed": other[n]} for n in COUNTERS},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"determinism-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{args.workload}: counters "
          f"{'identical' if not mismatched else 'DIFFER: ' + ', '.join(mismatched)}"
          f" across two runs of seed {args.seed}; "
          f"{sum(first[n] != other[n] for n in COUNTERS)} of {len(COUNTERS)} "
          f"differ at seed {args.seed + 1}; written to {path.relative_to(ROOT)}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
