#!/usr/bin/env python3
"""Steadiness check for the service benchmark.

Runs the benchmark command from BENCHMARK.json on one or more workloads,
once per seed (and `--repeat` times per seed), each run `run_seconds` long,
then reports for every
end-to-end metric its median and its spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound. It also compares the determinism
record (answers digest and exact-repeat counts) of runs at the same seed
and flags any run that differs from the first run of its seed.

Run it from the repository root:

    python3 servicebench/steady.py --workload road-cold --seeds 1,2,3,4,5
    python3 servicebench/steady.py --workload all --seeds 1-10 --repeat 1

Exit status: 0 when every run checked out, every spread is within its
metric's bound and no determinism record differs; 1 otherwise; 2 on a usage
error.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCHMARK = "BENCHMARK.json"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(argv)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    record = None
    for line in lines:
        if line.startswith("determinism "):
            record = json.loads(line[len("determinism "):])["record"]
    return result, record


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name or `all`")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    args = ap.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    ok = True
    for workload in workloads:
        values = {}
        records = {}
        for seed in seeds:
            for rep in range(args.repeat):
                result, record = run_once(bench["command"], workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed} run {rep}: incorrect "
                          f"({result['failed']}/{result['attempted']} failed)")
                    ok = False
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                first = records.setdefault(seed, record)
                if record != first:
                    print(f"{workload} seed {seed} run {rep}: determinism record differs\n"
                          f"  first: {first}\n  this:  {record}")
                    ok = False
        print(f"{workload}: {len(seeds)} seeds x {args.repeat} runs, {seconds} s each")
        for name, vals in values.items():
            med, sp = spread(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                if sp > bound:
                    verdict = "OVER BOUND"
                    ok = False
                elif sp > bound / 3:
                    verdict = "above a third of the bound"
            shown = "-" if bound is None else f"{bound:.3f}"
            print(f"  {name:<38} median {med:>14.6g}  spread {sp:7.4f}  bound {shown:>6}  {verdict}")
            print("      " + " ".join(f"{v:.6g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
