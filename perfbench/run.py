#!/usr/bin/env python3
"""Host-time benchmark of the Fela simulator.

Builds the simulator library from ../src plus the benchmark program
(perfbench.cc) in Release mode under .bench_build/perfbench, runs one
workload, checks the simulated outputs, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload paper-8 --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics (and writes the run's spans to
.bench_build/perfbench-out/). See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "fela_perfbench")
PINS = os.path.join(HERE, "pins.txt")
# A run must end within 180 s; the binary itself stops timing after
# --seconds, so this only catches a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no src/ next to perfbench/; run it from "
                         "the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "fela_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def expected_metrics(trace):
    """{name: unit} that BENCHMARK.json asks of this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(result, trace):
    """Problems with the shape of a result line; empty when it is valid."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result["attempted"])
    if not isinstance(result["failed"], int):
        problems.append("failed is %r" % result["failed"])
    want = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            problems.append("metric %s missing" % name)
        elif got[name].get("unit") != unit:
            problems.append("metric %s has unit %r, BENCHMARK.json says %r"
                            % (name, got[name].get("unit"), unit))
    for name in got:
        if name not in want:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    return problems


def run(workload, seed, seconds, trace, extra=()):
    """Runs the built binary; returns (stdout lines, parsed result line)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--pins", PINS]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            OUT_DIR, "spans-%s-seed%d.json" % (workload, seed))]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d"
                         % (" ".join(cmd), proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    lines, result = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    problems = check_result(result, args.trace)
    if problems:
        for p in problems:
            print("perfbench: " + p, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
