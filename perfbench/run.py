#!/usr/bin/env python3
"""Build the HomeGuard benchmark from source and run one workload.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeat mode runs one workload N times with seeds S0, S0+1, ... and prints
each metric's median, quartiles and spread next to its bound:

    python3 perfbench/run.py --workload NAME --repeat N [--seed S0] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The program is built with dune into
.bench_build/; journals go to .bench_state/ (removed when a run ends) and
traced runs write their spans to .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "hgbench.exe")


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/hgbench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
        )
    except OSError as e:
        sys.exit("perfbench: cannot run dune: %s" % e)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def revision():
    # never look above the checkout for a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown(not-a-git-checkout)"


def one_run(workload, seed, seconds, trace, rev):
    return [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--rev", rev]


def repeat(args, rev):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    listed = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    seed0 = args.seed if args.seed is not None else 1
    runs = []
    for i in range(args.repeat):
        seed = seed0 + i
        out = subprocess.run(one_run(args.workload, seed, seconds, args.trace, rev), cwd=ROOT,
                             capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("perfbench: run with seed %d failed:\n%s" % (seed, out.stderr))
        result = json.loads(lines[-1])
        record = next((json.loads(l[len("run-record: "):]) for l in lines if l.startswith("run-record: ")), {})
        if sorted(result["metrics"]) != sorted(bounds):
            sys.exit("perfbench: metrics of seed %d differ from BENCHMARK.json" % seed)
        runs.append((seed, result, record))
        print("seed %-4d correct=%s attempted=%d failed=%d load=%s..%s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            record.get("load_start"), record.get("load_end")), flush=True)
    shares = sorted({r["failed"] / r["attempted"] for _, r, _ in runs})
    print("failed share: %s" % ", ".join("%.6f" % s for s in shares))
    names = list(bounds) + [n for n in runs[0][2].get("metrics", {}) if n not in bounds and not args.trace]
    print("%-24s %-9s %14s %14s %14s %8s %7s" % ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for name in names:
        values, unit = [], ""
        for _, result, record in runs:
            m = result["metrics"].get(name) or record.get("metrics", {}).get(name)
            values.append(m["value"])
            unit = m["unit"]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-24s %-9s %14.6g %14.6g %14.6g %8.4f %7s" % (
            name, unit, med, q1, q3, spread, "-" if bound is None else "%.3f" % bound))
    return 0 if all(r["correct"] for _, r, _ in runs) and len(shares) == 1 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int)
    args = p.parse_args()
    os.chdir(ROOT)
    build()
    rev = revision()
    if args.repeat:
        sys.exit(repeat(args, rev))
    if args.seed is None or args.seconds is None:
        p.error("--seed and --seconds are required for a single run")
    sys.stdout.flush()
    os.execv(EXE, one_run(args.workload, args.seed, args.seconds, args.trace, rev))


if __name__ == "__main__":
    main()
