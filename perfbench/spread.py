#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: one run per seed, then for each metric the distance between
the first and third quartile of the runs (statistics.quantiles, n=4) as
a share of their median, next to the metric's bound.

    python3 perfbench/spread.py --workload paper-8 --seeds 1-10
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    first, last = (int(x) for x in args.seeds.split("-"))

    run.build()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, last + 1):
        _, result = run.run(args.workload, seed, seconds, 0)
        if not result["correct"]:
            print("seed %d: correct=false" % seed)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)

    print("\n%-22s %12s %8s %8s %6s" % ("metric", "median", "spread",
                                        "bound", "ok"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        print("%-22s %12.6g %7.2f%% %7.0f%% %6s" % (
            m["name"], med, 100 * spread, 100 * m["bound"],
            "-" if m["name"] == "setup_s" else
            ("yes" if spread < m["bound"] / 3 else "NO")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
