#!/usr/bin/env python3
"""Record a baseline: every end-to-end metric over ten seeds per workload.

    python3 perfbench/baseline.py --seeds 1-10

Runs ``run.py`` untraced once per seed and workload of ``BENCHMARK.json``,
for its ``run_seconds``, and writes ``perfbench/baseline.json``: for each
metric the ten values, their median, quartiles and spread (quartile
distance over median), with the machine the runs were made on.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import BLAS_THREAD_VARS, HERE, ROOT


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy,
        "processes": 1,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="first-last")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    doc = {"date": time.strftime("%Y-%m-%d"), "machine": machine(),
           "run_seconds": bench["run_seconds"], "seeds": [first, last],
           "workloads": {}}
    for w in bench["workloads"]:
        values = {n: [] for n in names}
        for seed in range(first, last + 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 w["name"], "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
                check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w['name']} seed {seed}: a wrong answer")
            for n in names:
                values[n].append(result["metrics"][n]["value"])
        summary = {}
        for n, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            summary[n] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "values": v}
            print(f"{w['name']} {n}: median {summary[n]['median']:.4g}, "
                  f"spread {summary[n]['spread']:.3f}", flush=True)
        doc["workloads"][w["name"]] = summary
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
