#!/usr/bin/env python3
"""Compares two sets of qpgc_e2e result files.

Usage:
  compare.py BASE_DIR [NEW_DIR] [--agree] [--claim METRIC WORKLOAD]

Each directory holds result-*.json files as qpgc_e2e writes them (one per
workload, seed and trace mode). The table lists, per workload and metric,
each set's median and quartiles and the change of the medians.

  --agree   BASE and NEW are runs of the same code: every end-to-end metric
            must have a quartile spread within its BENCHMARK.json bound in
            each set, and NEW's median must not be worse than BASE's by more
            than the bound. Exit 1 otherwise.
  --claim   BASE is the parent, NEW the change. The change wins METRIC on
            WORKLOAD when (runs paired by seed) it is better in at least 9
            of 10 pairs, ties counting for neither; the medians differ by
            more than BASE's quartile spread; and no other end-to-end metric
            on any workload has a median worse than its bound (a pairing
            whose BASE spread exceeds its bound is unresolved unless every
            NEW run beats every BASE run). Exit 0 when the claim holds.

Run the two sides alternately (parent, change, parent, ...) on the same
seeds; the pairing is by seed.
"""

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, os.pardir, "BENCHMARK.json")


def load(directory):
    """{(workload, metric): {seed: value}} over every result file."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path, encoding="utf-8") as f:
            result = json.load(f)
        for name, value in result["metrics"].items():
            runs.setdefault((result["workload"], name), {})[result["seed"]] = (
                value)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--claim", nargs=2, metavar=("METRIC", "WORKLOAD"))
    args = parser.parse_args()
    if (args.agree or args.claim) and args.new is None:
        parser.error("--agree and --claim need two result directories")

    with open(BENCHMARK, encoding="utf-8") as f:
        e2e = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base = load(args.base)
    new = load(args.new) if args.new else {}
    if not base:
        sys.exit(f"compare.py: no result files in {args.base}")

    print(f"{'workload':18s} {'metric':32s} {'base median [q1, q3]':>36s}"
          f"{'new median [q1, q3]':>38s} {'change':>8s}")
    for key in sorted(base):
        b = list(base[key].values())
        bq = quartiles(b)
        line = (f"{key[0]:18s} {key[1]:32s} "
                f"{bq[1]:12.5g} [{bq[0]:.5g}, {bq[2]:.5g}]")
        if key in new:
            nq = quartiles(list(new[key].values()))
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            line += f"  {nq[1]:12.5g} [{nq[0]:.5g}, {nq[2]:.5g}] {change:+8.2%}"
        print(line)

    problems = []
    if args.agree:
        for key in sorted(base):
            metric = e2e.get(key[1])
            if metric is None or key not in new:
                continue
            b, n = list(base[key].values()), list(new[key].values())
            for label, values in (("base", b), ("new", n)):
                if spread(values) > metric["bound"]:
                    problems.append(f"{key}: {label} spread {spread(values):.3f}"
                                    f" > bound {metric['bound']}")
            worse = worse_by(statistics.median(b), statistics.median(n),
                             metric["better"])
            if worse > metric["bound"]:
                problems.append(f"{key}: new median worse by {worse:.3f} > "
                                f"bound {metric['bound']}")

    if args.claim:
        name, workload = args.claim
        key = (workload, name)
        if name not in e2e or key not in base or key not in new:
            sys.exit(f"compare.py: no end-to-end results for {name} on "
                     f"{workload}")
        better = e2e[name]["better"]
        seeds = sorted(set(base[key]) & set(new[key]))
        wins = sum(1 for s in seeds
                   if worse_by(base[key][s], new[key][s], better) < 0)
        b = list(base[key].values())
        bq = quartiles(b)
        gap = abs(statistics.median(list(new[key].values())) - bq[1])
        print(f"\nclaim {name} on {workload}: wins {wins}/{len(seeds)} pairs, "
              f"median gap {gap:.5g} vs base quartile spread "
              f"{bq[2] - bq[0]:.5g}")
        if not seeds or wins < 0.9 * len(seeds):
            problems.append("the change wins fewer than 9 of 10 pairs")
        if gap <= bq[2] - bq[0]:
            problems.append("the median gap is within the base spread")
        for other in sorted(base):
            metric = e2e.get(other[1])
            if metric is None or other == key or other not in new:
                continue
            ob, on = list(base[other].values()), list(new[other].values())
            worse = worse_by(statistics.median(ob), statistics.median(on),
                             metric["better"])
            if spread(ob) > metric["bound"]:
                if not all(worse_by(x, y, metric["better"]) < 0
                           for x in ob for y in on):
                    print(f"unresolved: {other} (base spread "
                          f"{spread(ob):.3f} > bound {metric['bound']})")
            elif worse > metric["bound"]:
                problems.append(f"{other}: worse by {worse:.3f} > bound "
                                f"{metric['bound']}")

    for p in problems:
        print("FAIL " + p)
    if args.agree or args.claim:
        print("OK" if not problems else f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
