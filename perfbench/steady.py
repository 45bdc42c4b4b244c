#!/usr/bin/env python3
"""Steadiness study of the end-to-end benchmark.

    python3 perfbench/steady.py [--runs 5] [--workload narrow ...]
    python3 perfbench/steady.py --overhead [--runs 3]

Default mode runs two sets of runs of each workload, each run on its own
seed, and prints every end-to-end metric's median and quartiles per set,
its spread (distance between the quartiles as a share of the median) and
whether the two sets agree within the metric's bound from BENCHMARK.json:
both spreads within the bound and the two medians apart by no more than the
bound, in either direction. It also compares the share of failed rounds. --overhead instead pairs untraced and traced runs of one
seed and prints how much tracing moves each end-to-end figure.
"""

import argparse
import statistics
import sys

import run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    return (second - first) / first if better == "lower" else \
        (first - second) / first


def run_set(workload, seeds, seconds):
    results = []
    for seed in seeds:
        r = run.measure(workload, seed, seconds, False)
        results.append(r)
        print(f"  {workload} seed {seed}: attempted {r['attempted']} "
              f"failed {r['failed']} correct {r['correct']}", flush=True)
    return results


def steadiness(spec, args):
    ok = True
    for w in args.workload:
        sets = []
        for k in range(2):
            seeds = [args.seed + 100 * k + i for i in range(args.runs)]
            print(f"set {k + 1}, workload {w}, seeds {seeds}", flush=True)
            sets.append(run_set(w, seeds, args.seconds))
        print(f"\n{w}: {args.runs} runs per set, {args.seconds} s each")
        print(f"  {'metric':24} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for k, results in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = quartiles(vals)
                stats.append((med, (q3 - q1) / med))
                print(f"  {name:24} {k + 1:>3} {med:>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {(q3 - q1) / med:>7.3f} {bound:>6}")
            spreads_ok = all(s <= bound for _, s in stats)
            drift = worse_by(stats[0][0], stats[1][0], m["better"])
            agree = spreads_ok and abs(drift) <= bound
            ok = ok and agree
            print(f"  {'':24} second median worse by {drift:+.3f}: "
                  f"{'agree' if agree else 'DISAGREE'}")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets]
        same = shares[0] == shares[1]
        ok = ok and same
        print(f"  failed share per set: {shares[0]:.6g} / {shares[1]:.6g}: "
              f"{'same' if same else 'DIFFERENT'}\n")
    print("steadiness:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def overhead(spec, args):
    for w in args.workload:
        rows = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = args.seed + i
            plain = run.measure(w, seed, args.seconds, False)["metrics"]
            traced = run.measure(w, seed, args.seconds, True)["metrics"]
            for m in spec["end_to_end"]:
                a = plain[m["name"]]["value"]
                b = traced[m["name"]]["value"]
                rows[m["name"]].append(worse_by(a, b, m["better"]))
        print(f"\n{w}: tracing cost, median over {args.runs} seed pairs "
              "(positive = traced run worse)")
        for name, d in rows.items():
            print(f"  {name:24} {statistics.median(d):+.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workload", nargs="*", default=None)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    spec = run.load_spec()
    args.seconds = args.seconds or spec["run_seconds"]
    args.workload = args.workload or [w["name"] for w in spec["workloads"]]
    run.build()
    sys.exit(overhead(spec, args) if args.overhead else steadiness(spec, args))


if __name__ == "__main__":
    main()
