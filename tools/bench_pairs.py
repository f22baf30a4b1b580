#!/usr/bin/env python3
"""Runs the repository benchmark on two checkouts in alternating pairs.

Usage (from any directory):

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload point-reads [--seeds 7,2026] [--pairs 5] [--trace 0|1] \\
        [--log FILE]

PARENT_DIR and CHANGE_DIR are two checkouts (for example a `git clone` of
the parent commit and one of the change). For every seed the script runs
`--pairs` pairs of `python3 perfbench/run.py` on the same workload and
seed, one run per checkout, alternating which side goes first. Every run
lasts the benchmark's fixed `run_seconds` from BENCHMARK.json. Each
checkout builds into its own CARGO_TARGET_DIR, <checkout>/.bench_build,
so the two builds never mix.

Every result line is appended to the log (JSON lines, default
bench_pairs_<workload>.jsonl), together with its side, seed and pair. The
summary covers every pair in the log for the workload and trace level, so
an interrupted series resumes where it stopped. `--pairs 0` only prints
the summary. For each metric in BENCHMARK.json that the runs report (the
end-to-end metrics, or with `--trace 1` the per-layer ones) it prints:

  - each side's median and quartiles;
  - the pairs the change won;
  - whether the gap between the medians beats the parent's quartile
    spread (the interquartile range of the parent's runs);
  - for a metric with a `bound` (the end-to-end ones), the verdict against
    a margin of bound x the parent's median: "worse" when the change's
    median is worse than the parent's by more than the margin,
    "unresolved" when the parent's quartile spread exceeds the margin and
    not every change run beats every parent run, "within bound"
    otherwise;

then every run's `correct`, `attempted` and `failed`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout, target, workload, seed, seconds, trace):
    """Runs perfbench/run.py in `checkout`; returns its result or an error."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        return {"error": f"run.py exited with {done.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "no result line"}


def load_log(path):
    if not os.path.isfile(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    """Four significant digits, large values with a k or M suffix."""
    for threshold, scale, suffix in ((1e6, 1e6, "M"), (1e4, 1e3, "k")):
        if abs(x) >= threshold:
            return f"{x / scale:.4g}{suffix}"
    return f"{x:.4g}"


def verdict(metric, parent, change, p_med, c_med, spread):
    """The change's verdict against the metric's bound, or "-" without one."""
    if "bound" not in metric:
        return "-"
    margin = metric["bound"] * abs(p_med)
    higher = metric["better"] == "higher"
    worse_by = (p_med - c_med) if higher else (c_med - p_med)
    if worse_by > margin:
        return "worse"
    beats_all = (min(change) > max(parent)) if higher else \
        (max(change) < min(parent))
    if spread > margin and not beats_all:
        return "unresolved"
    return "within bound"


def summarize(records, metrics):
    """Prints the per-metric pair statistics and the per-run outcomes."""
    pairs = {}
    for r in records:
        pairs.setdefault((r["seed"], r["pair"]), {})[r["side"]] = r["result"]
    complete = [p for _, p in sorted(pairs.items())
                if all(s in p and "metrics" in p[s] for s in SIDES)]
    seeds = sorted({seed for seed, _ in pairs})
    print(f"{len(complete)} complete pairs, seeds "
          f"{', '.join(str(s) for s in seeds)}")
    if not complete:
        return
    width = max(len(m["name"]) for m in metrics)
    header = (f"{'metric':<{width}} {'parent median (q1-q3)':<30} "
              f"{'change median (q1-q3)':<30} {'median':>8} {'won':>7}  "
              f"{'bound verdict':<13} gap > parent IQR")
    print(header)
    for m in metrics:
        name = m["name"]
        if not all(name in p[s]["metrics"] for p in complete for s in SIDES):
            continue
        higher = m["better"] == "higher"
        values = {s: [p[s]["metrics"][name]["value"] for p in complete]
                  for s in SIDES}
        stats = {s: quartiles(values[s]) for s in SIDES}
        won = sum(1 for p in complete
                  if (p["change"]["metrics"][name]["value"] >
                      p["parent"]["metrics"][name]["value"]) == higher and
                  p["change"]["metrics"][name]["value"] !=
                  p["parent"]["metrics"][name]["value"])
        p_med, c_med = stats["parent"][1], stats["change"][1]
        gap = (c_med - p_med) if higher else (p_med - c_med)
        spread = stats["parent"][2] - stats["parent"][0]
        change = (c_med / p_med - 1.0) * 100.0 if p_med else 0.0
        cells = []
        for s in SIDES:
            q1, med, q3 = stats[s]
            cells.append(f"{fmt(med)} ({fmt(q1)}-{fmt(q3)})")
        bound = verdict(m, values["parent"], values["change"], p_med, c_med,
                        spread)
        beats = "yes" if gap > spread else "no"
        print(f"{name:<{width}} {cells[0]:<30} {cells[1]:<30} "
              f"{change:>+7.1f}% {won:>3}/{len(complete):<3}  {bound:<13} "
              f"{beats} (gap {fmt(gap)}, IQR {fmt(spread)})")
    print()
    print(f"{'seed':>6} {'pair':>4} {'side':<7} {'correct':<8} "
          f"{'attempted':>10} {'failed':>7}")
    for r in sorted(records, key=lambda r: (r["seed"], r["pair"], r["order"])):
        res = r["result"]
        if "error" in res:
            print(f"{r['seed']:>6} {r['pair']:>4} {r['side']:<7} "
                  f"error: {res['error']}")
            continue
        print(f"{r['seed']:>6} {r['pair']:>4} {r['side']:<7} "
              f"{str(res['correct']).lower():<8} {res['attempted']:>10} "
              f"{res['failed']:>7}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="42",
                        help="comma-separated workload seeds")
    parser.add_argument("--pairs", type=int, default=5,
                        help="pairs to run per seed (0 = summarize only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", help="JSON-lines log of every result")
    args = parser.parse_args()

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    log = args.log or f"bench_pairs_{args.workload}.jsonl"
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        declared = json.load(f)
    metrics = declared["end_to_end"] + declared["per_layer"]

    def matching(records):
        return [r for r in records
                if r["workload"] == args.workload and r["trace"] == args.trace]

    done = matching(load_log(log))
    for seed in (int(s) for s in args.seeds.split(",")):
        next_pair = 1 + max((r["pair"] for r in done if r["seed"] == seed),
                            default=-1)
        for pair in range(next_pair, next_pair + args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for i, side in enumerate(order):
                target = os.path.join(checkouts[side], ".bench_build")
                result = run_once(checkouts[side], target, args.workload, seed,
                                  declared["run_seconds"], args.trace)
                record = {"workload": args.workload, "trace": args.trace,
                          "seed": seed, "pair": pair, "order": i,
                          "side": side, "result": result}
                with open(log, "a") as f:
                    f.write(json.dumps(record) + "\n")
                done.append(record)
                print(f"seed {seed} pair {pair} {side}: "
                      f"{result.get('error', 'ok')}", file=sys.stderr)
    summarize(matching(load_log(log)), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
