"""Repeat benchmark runs and summarise their spread.

    python3 perfbench/sweep.py --first-seed 1 --out perfbench/results/baseline-1.json

Runs every workload once per seed, seeds first-seed .. first-seed+RUNS-1,
workloads interleaved, then one traced run per workload with first-seed.
For each end-to-end metric it reports the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, and
flags a spread above a third of the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def one_run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - start
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if res.returncode == 0 and lines else None
    path = os.path.join(ROOT, ".perfbench", "results", "%s-seed%d-trace%d.json" % (workload, seed, trace))
    record = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    print("%-11s seed %3d trace %d exit %d %.1fs" % (workload, seed, trace, res.returncode, wall), flush=True)
    if result is None:
        print(res.stdout[-2000:], res.stderr[-2000:], file=sys.stderr)
    keep = ("python", "nproc", "cpu_model", "commit", "src_sha256", "seed", "input_seed",
            "loadavg_start", "rule_hits", "problems", "wall_s", "samples")
    return {"workload": workload, "seed": seed, "trace": trace, "exit": res.returncode,
            "wall_s": wall, "result": result, "record": {k: record.get(k) for k in keep}}


def summarise(runs, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == workload and r["trace"] == 0 and r["result"]]
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in rows if r["result"]["correct"]]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"n": len(values), "median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "bound": bound,
                                       "steady": spread <= bound / 3}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for workload in names:
            runs.append(one_run(workload, seed, spec["run_seconds"], 0))
    for workload in names:
        runs.append(one_run(workload, args.first_seed, spec["run_seconds"], 1))
    summary = summarise(runs, spec)
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print("%-11s %-20s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f  bound %.2f %s"
                  % (workload, name, s["median"], s["q1"], s["q3"], s["spread"], s["bound"],
                     "" if s["steady"] else "SPREAD ABOVE BOUND/3"))
    if args.out:
        write(args.out, summary, runs)


def write(path, summary, runs):
    """The summary indented, then one run per line."""
    dump = lambda obj, **kw: json.dumps(obj, sort_keys=True, ensure_ascii=False, **kw)  # noqa: E731
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"summary": %s,\n "runs": [\n' % dump(summary, indent=1))
        fh.write(",\n".join("  " + dump(run) for run in runs))
        fh.write("\n]}\n")


if __name__ == "__main__":
    main()
