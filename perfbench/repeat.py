#!/usr/bin/env python3
"""Repeated benchmark runs: each metric's median, quartiles and spread.

Usage, from anywhere inside a checkout:
  python3 perfbench/repeat.py [--workload NAME ...] [--seeds 1-10]
                              [--discard 0] [--trace 0|1] [--seconds S]
                              [--out summary.json]
  python3 perfbench/repeat.py --selftest    # test the statistics below

Runs `perfbench/run.py --workload W --seed N --seconds S --trace T` once per
seed and workload, seed by seed, so a slow phase of a shared host falls on
every workload alike. The first --discard runs of each workload are warm-up
and are dropped. For every metric it prints the sample count, the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json: "steady"
below a third of the bound, "ok" within it, "NOISY" beyond it.

Every run prints an environment stamp (nproc, hardware_concurrency, threads,
build type, compiler); runs of one workload whose stamps differ are refused,
so numbers from different boxes or builds are never pooled.

Exit status 1 when a run fails or an end-to-end spread exceeds its bound,
else 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV_PREFIX = "perfbench-env "
STAMP_KEYS = ("nproc", "hardware_concurrency", "threads", "build_type",
              "compiler")


def parse_seeds(text):
    """'1-10', '3,5,8' or a mix of both -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_output(stdout):
    """(environment stamp, result object) from one run's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    env = {}
    for line in lines:
        if line.startswith(ENV_PREFIX):
            env = json.loads(line[len(ENV_PREFIX):])
    return env, json.loads(lines[-1])


def summarize(values):
    """n, median, quartiles and (q3 - q1) / median of a list of numbers."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": spread}


def verdict(spread, bound):
    if bound is None:
        return ""
    if spread < bound / 3:
        return "steady"
    return "ok" if spread <= bound else "NOISY"


def selftest():
    """Checks summarize() and verdict() against hand-computed figures."""
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    # statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    s = summarize([10, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    expect((s["n"], s["q1"], s["median"], s["q3"]) == (10, 2.75, 5.5, 8.25),
           f"ten values: {s}")
    expect(s["spread"] == 1.0, f"ten values spread: {s}")
    s = summarize([16, 1, 8, 2, 4])
    expect((s["q1"], s["median"], s["q3"]) == (1.5, 4.0, 12.0),
           f"odd count: {s}")
    expect(s["spread"] == 2.625, f"odd count spread: {s}")
    s = summarize([3.0, 1.0])
    expect((s["q1"], s["median"], s["q3"]) == (0.5, 2.0, 3.5),
           f"two values: {s}")
    s = summarize([7.0])
    expect((s["n"], s["median"], s["spread"]) == (1, 7.0, 0.0),
           f"one value: {s}")
    s = summarize([0.0, 0.0, 0.0])
    expect(s["spread"] == 0.0, f"zero median: {s}")
    s = summarize([-4.0, -2.0, -3.0])
    expect(s["spread"] > 0.0, f"negative median: {s}")

    expect(verdict(0.05, 0.25) == "steady", "steady below a third")
    expect(verdict(0.1, 0.25) == "ok", "ok within the bound")
    expect(verdict(0.25, 0.25) == "ok", "ok at the bound")
    expect(verdict(0.26, 0.25) == "NOISY", "noisy beyond the bound")
    expect(verdict(5.0, None) == "", "no verdict without a bound")

    expect(parse_seeds("1-3,7") == [1, 2, 3, 7], "seed list")
    env, result = parse_output(
        'perfbench-env {"nproc": 4}\n  row\n{"correct": true}\n\n')
    expect(env == {"nproc": 4} and result == {"correct": True}, "output parse")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    print(f"repeat.py self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {proc.returncode}")
    return parse_output(proc.stdout)


def main():
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--discard", type=int, default=0,
                    help="warm-up runs dropped per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    defs = manifest["end_to_end" if args.trace == 0 else "per_layer"]
    samples = {w: [] for w in workloads}
    # Per workload: the thread count is a property of the workload.
    stamps = {}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            env, result = run_once(w, seed, args.seconds, args.trace)
            this = {k: env.get(k) for k in STAMP_KEYS}
            if stamps.setdefault(w, this) != this:
                raise SystemExit(f"{w}: environment changed: {stamps[w]} vs {this}")
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: outputs failed their checks")
            samples[w].append(result["metrics"])
            print(f"  {w} seed {seed} done", flush=True)

    print(f"\nseeds: {args.seeds}  discarded: {args.discard}")
    summary = {"seeds": args.seeds, "discard": args.discard,
               "trace": args.trace, "seconds": args.seconds, "workloads": {}}
    noisy = False
    for w in workloads:
        runs = samples[w][args.discard:]
        print(f"\n{w}  ({len(runs)} runs)  environment: {json.dumps(stamps[w])}")
        print(f"  {'metric':<34}{'n':>4}{'median':>15}{'q1':>15}{'q3':>15}"
              f"{'spread':>9}{'bound':>7}")
        rows = {}
        for d in defs:
            values = [r[d["name"]]["value"] for r in runs]
            s = summarize(values)
            s["values"] = values
            bound = d.get("bound")
            s["bound"] = bound
            s["verdict"] = verdict(s["spread"], bound)
            noisy = noisy or s["verdict"] == "NOISY"
            rows[d["name"]] = s
            print(f"  {d['name']:<34}{s['n']:>4}{s['median']:>15.6g}"
                  f"{s['q1']:>15.6g}{s['q3']:>15.6g}{s['spread']:>9.4f}"
                  f"{'' if bound is None else bound:>7} {s['verdict']}")
        summary["workloads"][w] = {"stamp": stamps[w], "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
