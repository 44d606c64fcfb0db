#!/usr/bin/env python3
"""Compare saved benchmark results (run.py --out) of a base and a new commit.

    python3 perfbench/compare.py --base base_s*.json --new new_s*.json

Per workload and end-to-end metric, prints the median of each side and the
change as a share of the base median, against the bound in BENCHMARK.json.
Refuses (exit 2) when the results were measured on different kernel
backends, since such numbers are not comparable.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            results.extend(json.load(fh))
    return [r for r in results if not r["trace"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    backends = {r["provenance"]["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"compare: refusing to compare results from backends "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    print(f"backend {backends.pop()}")
    print(f"{'workload':14s} {'metric':12s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        sides = [[r for r in side if r["workload"] == workload]
                 for side in (base, new)]
        for metric in end_to_end:
            name = metric["name"]
            b, n = (statistics.median(r["metrics"][name]["value"] for r in side)
                    for side in sides)
            change = (n - b) / abs(b)
            worse = change if metric["better"] == "lower" else -change
            verdict = "worse" if worse > metric["bound"] else "ok"
            print(f"{workload:14s} {name:12s} {b:12.6g} {n:12.6g} "
                  f"{change:+8.2%} {metric['bound']:6.2f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
