#!/usr/bin/env python3
"""The symtc benchmark: one workload per run, in one process, no threads.

    python3 perfbench/run.py --workload circle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; symtc is imported from ``src/``.
The run is a closed loop of one client: each case starts when the previous
one ends.  The seed fixes the work list before timing starts: every case
with its chosen relabelled copies of the input.  The list runs in whole
passes while they fit in ``--seconds`` (see ``measure``; the first pass
always runs).  Every execution is checked (see ``workloads.run_case``) and
recorded with its outcome.  ``wall_s`` sums over the case list the seconds
of each case (mean over its copies of the median over repeats of a copy),
so it estimates one pass over the list; ``wall_ref_s`` rescales it to the
reference machine speed measured by ``speed.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
execution twice in a row, once untraced and once traced (alternating which
goes first), and reports the per-layer metrics: layer times are summed in the
same way as ``wall_s``; counters are summed over the first pass, so they
repeat exactly for a seed.  Both modes write every case record (and the
spans, when traced) to ``perfbench/out/`` when the run ends.  The last line
of standard output is one JSON object with the metrics.
"""

import argparse
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CASE_LIMIT_S = 60  # a case running longer ends as a timeout
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-layer metrics that must repeat exactly for a seed
COUNTERS = (
    "constructions.top_size", "actions.calls", "actions.units",
    "search.calls", "search.stage_start", "search.stage_quick",
    "search.stage_exact", "search.yes", "search.no",
    "search.budget_exceeded", "search.nodes_enumerated",
    "search.nodes_explored", "search.explored_ratio",
    "search.witness_steps", "complexity.pieces_tested",
    "complexity.lattice_visited", "complexity.candidate_pieces",
    "covers.calls", "sections.pieces_tested", "verify.certificates",
    "verify.rejected", "io.report_bytes",
)


class CaseTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CaseTimeout(f"case ran longer than {CASE_LIMIT_S} s")


def import_program():
    """Import symtc from this checkout's ``src/`` and the benchmark modules."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import symtc
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import symtc from {src}: {exc}")
    if Path(symtc.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: symtc came from {symtc.__file__}, not {src}")
    import tracing
    import workloads

    return workloads, tracing


def execute(wl, tr, case, P):
    """Run one case under the time limit; returns (record, seconds)."""
    signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
    start = time.perf_counter()
    try:
        rec = {"outcome": "solved", **wl.run_case(tr, case, P)}
    except wl.Wrong as exc:
        rec = {"outcome": "wrong", "detail": str(exc)}
    except wl.BudgetExceeded as exc:
        rec = {"outcome": "budget_exceeded", "budget": wl.budget_name(exc),
               "detail": str(exc)}
    except CaseTimeout as exc:
        rec = {"outcome": "timeout", "detail": str(exc)}
    except Exception as exc:  # a failing case is a data point, not a crash
        rec = {"outcome": "error", "detail": f"{type(exc).__name__}: {exc}"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rec, time.perf_counter() - start


def _traced(wl, tracer, case, P, case_id):
    with tracer.case(case_id) as root:
        rec, _ = execute(wl, tracer, case, P)
    rec["trace"] = tracer.summarize(root)
    rec["counters"] = dict(tracer.counters)
    return rec


def measure(wl, tracing, cases, seconds, tracer, speed):
    """The closed loop.  Returns the execution records of each case.

    The work list is fixed by the seed before timing starts: every case with
    each of its chosen copies (``workloads.generate``).  The list runs in
    whole passes; after the first, another pass starts only if the last one
    would still end within ``seconds``.  So the program's speed decides only
    how often the inputs repeat, never which inputs are timed.  The speed
    kernel is sampled between cases.  Traced, every execution runs once
    untraced and once traced, alternating by pass which goes first.
    """
    null = tracing.NullTracer()
    records = [[] for _ in cases]
    start = time.perf_counter()
    for n in itertools.count():
        began = time.perf_counter()
        for i, case in enumerate(cases):
            for copy, P in enumerate(case.copies):
                speed.sample()
                if tracer is None:
                    rec, sec = execute(wl, null, case, P)
                elif n % 2:
                    trec = _traced(wl, tracer, case, P, f"{i}/{copy}/{n}")
                    rec, sec = execute(wl, null, case, P)
                else:
                    rec, sec = execute(wl, null, case, P)
                    trec = _traced(wl, tracer, case, P, f"{i}/{copy}/{n}")
                if tracer is not None:
                    rec["traced"] = {"copy": copy, **trec}
                records[i].append({"case": case.name, "copy": copy,
                                   "pass": n, "seconds": sec, **rec})
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return records


def setup_seconds(workload, seed):
    """Median set-up time of fresh processes: import symtc, make inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def _med_sum(records, value):
    """Sum over cases of the mean over copies of the median over repeats.

    The copies of a case differ in work, so their mean estimates the cost of
    the case over relabellings; repeats of one copy differ only by noise.
    """
    total = 0.0
    for recs in records:
        by_copy = {}
        for r in recs:
            by_copy.setdefault(r["copy"], []).append(value(r))
        total += statistics.fmean(
            statistics.median(v) for v in by_copy.values())
    return total


def end_to_end(records, setup_s, scale):
    flat = [r for recs in records for r in recs]
    solved = sum(r["outcome"] == "solved" for r in flat)
    wall = _med_sum(records, lambda r: r["seconds"])
    metrics = {
        "wall_ref_s": (wall * scale, "s"),
        "solved_frac": (solved / len(flat), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"wall_s": (wall, "s"), "speed.scale": (scale, "1")}


def per_layer(tracing, records):
    traced = [[r["traced"] for r in recs] for recs in records]
    m = {}
    for layer in tracing.LAYERS:
        for kind in ("busy_s", "self_s"):
            m[f"{layer}.{kind}"] = (_med_sum(
                traced, lambda t: t["trace"][kind].get(layer, 0.0)), "s")
    counters = Counter()
    for recs in records:  # the first pass runs every input once
        for r in recs:
            if r["pass"] == 0:
                counters.update(r["traced"]["counters"])
    enumerated = counters["search.nodes_enumerated"]
    counters["search.explored_ratio"] = (
        counters["search.nodes_explored"] / enumerated if enumerated else 0.0)
    for name in COUNTERS:
        m[name] = (counters[name],
                   "frac" if name.endswith("ratio") else
                   "bytes" if name.endswith("bytes") else "count")
    calls = sorted(ms for recs in traced for t in recs
                   for ms in t["trace"]["search_ms"])
    m["search.call_ms.p50"] = (statistics.median(calls) if calls else 0.0,
                               "ms")
    untraced = _med_sum(records, lambda r: r["seconds"])
    m["trace.overhead_frac"] = (
        _med_sum(traced, lambda t: t["trace"]["wall_s"]) / untraced - 1,
        "frac")
    m["trace.unattributed_s"] = (
        _med_sum(traced, lambda t: t["trace"]["unattributed_s"]), "s")
    extra = {}
    if len(calls) >= 100:  # at least ten samples beyond the 90th percentile
        extra["search.call_ms.p90"] = (
            statistics.quantiles(calls, n=10)[-1], "ms")
    extra["search.call_samples"] = (len(calls), "count")
    return m, extra


def write_out(workload, seed, trace, records, tracer, metrics):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{trace}.jsonl"
    with open(path, "w") as fh:
        for recs in records:
            for r in recs:
                fh.write(json.dumps(r, default=str) + "\n")
        if tracer is not None:
            for s in tracer.span_docs():
                fh.write(json.dumps({"span": s}) + "\n")
        fh.write(json.dumps({"metrics": metrics}) + "\n")
    return path


def print_cases(cases, records):
    for case, recs in zip(cases, records):
        kinds = Counter(r["outcome"] for r in recs)
        first = recs[0]
        shown = (f"{first['kind']} value={first['value']} "
                 f"upper={first['upper']}" if first["outcome"] == "solved"
                 else f"{first.get('budget', '')} {first['detail']}".strip())
        median = statistics.median(r["seconds"] for r in recs)
        print(f"case {case.name}: {len(recs)} runs {dict(kinds)}, "
              f"median {median:.3f} s; first: {first['outcome']}, {shown}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time the import and input generation, then exit")
    args = ap.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    started = time.perf_counter()
    wl, tracing = import_program()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)}")
    cases = wl.generate(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0

    import speed

    signal.signal(signal.SIGALRM, _alarm)
    tracer = tracing.Tracer() if args.trace else None
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    run_speed = speed.Speed()
    records = measure(wl, tracing, cases, args.seconds, tracer, run_speed)
    flat = [r for recs in records for r in recs]
    if args.trace:
        metrics, extra = per_layer(tracing, records)
        flat += [r["traced"] for r in flat]
    else:
        metrics, extra = end_to_end(records, setup_s, run_speed.scale())
    print_cases(cases, records)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {args.workload} {name} = {value:.6g} {unit}")
    doc = {name: {"value": value, "unit": unit}
           for name, (value, unit) in metrics.items()}
    path = write_out(args.workload, args.seed, args.trace, records, tracer,
                     {**doc, **{n: {"value": v, "unit": u}
                                for n, (v, u) in extra.items()}})
    print(f"records written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not any(r["outcome"] == "wrong" for r in flat),
        "attempted": len(flat),
        "failed": sum(r["outcome"] != "solved" for r in flat),
        "metrics": doc,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
