#!/usr/bin/env python3
"""Self-test of the benchmark (a few seconds).

    python3 perfbench/selftest.py

Checks that:
  * a tiny-size run of every workload, untraced and traced, is correct
    and emits every metric BENCHMARK.json names, with its unit, plus the
    failed_frac line;
  * a deliberately wrong pin shows up as failed_frac > 0 (the check bites);
  * at a non-default seed the seed-dependent workload is still checked
    (invariants, determinism) without its pins;
  * the pins agree with the numbers the repository already publishes;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("scale-1024", "paper-8", "chaos-observed-128")


def expect(cond, what):
    print("%s: %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        sys.exit(1)


def failed_frac(lines):
    for line in lines:
        if line.startswith("failed_frac"):
            return float(line.split()[1])
    return None


def tiny_runs():
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run.run(workload, 1, 0, trace, ["--tiny"])
            problems = run.check_result(result, trace)
            expect(not problems and result["correct"] and
                   result["failed"] == 0,
                   "tiny %s --trace %d: correct, every metric with its unit %s"
                   % (workload, trace, problems or ""))
            if trace == 0:
                expect(failed_frac(lines) == 0.0,
                       "tiny %s prints failed_frac 0" % workload)
            else:
                expect(any(l.startswith("self time per layer") for l in lines),
                       "tiny %s prints the self-time table" % workload)


def wrong_pin():
    lines, result = run.run("paper-8", 1, 0, 0, ["--tiny", "--wrong-pin"])
    frac = failed_frac(lines)
    expect(frac is not None and frac > 0 and not result["correct"] and
           result["failed"] > 0,
           "a wrong pin gives failed_frac %s > 0 and correct=false" % frac)


def other_seed():
    lines, result = run.run("chaos-observed-128", 7, 0, 1, ["--tiny"])
    expect(result["correct"] and
           any("not applicable" in l for l in lines),
           "seed 7: pins skipped, invariants and determinism still pass")


def pins_match_published_numbers():
    pins = {}
    with open(run.PINS) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                label, fnv, thr, sim_s, events, transfers = line.split()
                pins[label] = (float(thr), float(sim_s), int(events),
                               int(transfers))
    # bench/baselines/BENCH_scale_workers.json, 1024 workers, 32 shards:
    # 305.160 samples/s, 1073.799 sim s, 18477.2 events and 6138
    # transfers per iteration over 20 iterations.
    thr, sim_s, events, transfers = pins["scale-1024/Fela"]
    expect((round(thr, 3), round(sim_s, 3), events, transfers) ==
           (305.160, 1073.799, 369544, 122760),
           "scale-1024 pin matches BENCH_scale_workers.json")
    # EXPERIMENTS.md / quickstart: VGG19 @256, Fela 95.6 and DP 91.9;
    # bench_fault_recovery's clean row, VGG19 @512: DP 107.4, Fela 112.0.
    published = {"paper-8/VGG19@256/Fela": 95.6, "paper-8/VGG19@256/DP": 91.9,
                 "paper-8/VGG19@512/DP": 107.4, "paper-8/VGG19@512/Fela": 112.0}
    for label, value in published.items():
        expect(round(pins[label][0], 1) == value,
               "%s pin matches the published %.1f" % (label, value))


def bare_directory():
    bare = os.path.join(run.ROOT, ".bench_build", "perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=170)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the repository, run.py exits %d and prints no result"
           % proc.returncode)


def main():
    run.build()
    pins_match_published_numbers()
    tiny_runs()
    wrong_pin()
    other_seed()
    bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
