#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds, and read the results.

  suite.py run --out a.json [--seeds 1-10] [--only <workload>] [--seconds <s>]
               [--reps <n>] [--trace 0|1|both]
      Runs BENCHMARK.json's command once per workload, seed and trace mode
      from the repository root and stores every result line. `--seconds`,
      `--reps` and `--only` are recorded in the file's `env`, so that a short
      run cannot be mistaken for a baseline.

  suite.py spread a.json
      Per workload and end-to-end metric: median, quartiles, and the distance
      between the quartiles as a share of the median (the A/A spread), next to
      the metric's bound.

  suite.py compare a.json b.json
      One row per workload and end-to-end metric: both medians, the ratio with
      its base, the bound, and better / within / worse / unresolved. Exits
      non-zero on any `worse` and on any rise in failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(args):
    bench = benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.only and args.only not in names:
        sys.exit(f"--only: {args.only} is not one of {names}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    runs = []
    for trace in {"0": [0], "1": [1], "both": [0, 1]}[args.trace]:
        for name in [args.only] if args.only else names:
            for seed in parse_seeds(args.seeds):
                command = bench["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                ]
                if args.reps:
                    command += ["--reps", str(args.reps)]
                done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
                # Exit 3 is a result with failed operations: it is kept, so
                # that `compare` sees them. Anything else printed no result.
                if done.returncode not in (0, 3):
                    sys.exit(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                host = next((line for line in lines if line.startswith("env:")), "")
                runs.append({"workload": name, "seed": seed, "trace": trace,
                             "host": host, "result": result})
                shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in
                                  list(result["metrics"].items())[:4])
                print(f"{name} seed={seed} trace={trace} correct={result['correct']} {shown}",
                      flush=True)
    out = {
        "env": {"seconds": seconds, "reps": args.reps, "only": args.only,
                "seeds": args.seeds, "baseline": not (args.reps or args.only)
                and seconds == bench["run_seconds"]},
        "runs": runs,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)


def load(path):
    with open(path) as f:
        data = json.load(f)
    table = {}
    failed = {}
    for r in data["runs"]:
        if r["trace"] != 0:
            continue
        failed[r["workload"]] = failed.get(r["workload"], 0) + r["result"]["failed"]
        for metric, v in r["result"]["metrics"].items():
            table.setdefault((r["workload"], metric), []).append(v["value"])
    return data, table, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    bounds = {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}
    data, table, _ = load(args.file)
    print(f"env: {data['env']}")
    print(f"{'workload':<18} {'metric':<22} {'n':>3} {'q1':>10} {'median':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    worst = 0.0
    for (workload, metric), values in table.items():
        q1, q2, q3 = quartiles(values)
        share = (q3 - q1) / q2
        bound = bounds[metric]
        verdict = ("steady" if share <= bound / 3 else
                   "within bound" if share <= bound else "WIDER THAN BOUND")
        if metric != "setup_s":
            worst = max(worst, share / bound)
        print(f"{workload:<18} {metric:<22} {len(values):>3} {q1:>10.4g} {q2:>10.4g} {q3:>10.4g} "
              f"{share:>6.1%} {bound:>6.0%}  {verdict}")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")


def compare(args):
    metrics = {m["name"]: m for m in benchmark()["end_to_end"]}
    a_data, a, a_failed = load(args.a)
    b_data, b, b_failed = load(args.b)
    for label, data in (("a", a_data), ("b", b_data)):
        if not data["env"].get("baseline"):
            print(f"note: {label} is not a full-length run of every workload: {data['env']}")
    print(f"{'workload':<18} {'metric':<22} {'a median':>10} {'b median':>10} {'b/a':>7} "
          f"{'bound':>6} {'spread':>7}  verdict")
    bad = False
    for key in a:
        if key not in b:
            continue
        workload, metric = key
        m = metrics[metric]
        _, ma, _ = quartiles(a[key])
        _, mb, _ = quartiles(b[key])
        lower = m["better"] == "lower"
        worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
        spreads = [(q[2] - q[0]) / q[1] for q in (quartiles(a[key]), quartiles(b[key]))]
        wide = max(spreads)
        b_beats_all = max(b[key]) < min(a[key]) if lower else min(b[key]) > max(a[key])
        if wide > m["bound"] and not b_beats_all:
            verdict = "unresolved"
        elif worse_by > m["bound"]:
            verdict = "worse"
        elif b_beats_all or -worse_by > spreads[0]:
            verdict = "better"
        else:
            verdict = "within"
        bad |= verdict == "worse"
        print(f"{workload:<18} {metric:<22} {ma:>10.4g} {mb:>10.4g} {mb / ma:>7.3f} "
              f"{m['bound']:>6.0%} {wide:>6.1%}  {verdict} (base a = {ma:.4g} {m['unit']})")
    for workload, count in b_failed.items():
        if count > a_failed.get(workload, 0):
            print(f"{workload}: failed operations rose from {a_failed.get(workload, 0)} to {count}")
            bad = True
    sys.exit(1 if bad else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--only")
    p.add_argument("--seconds", type=float)
    p.add_argument("--reps", type=int)
    p.add_argument("--trace", choices=["0", "1", "both"], default="0")
    p.set_defaults(func=run)
    p = sub.add_parser("spread")
    p.add_argument("file")
    p.set_defaults(func=spread)
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=compare)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
