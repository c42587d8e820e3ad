#!/usr/bin/env python3
"""Tracing overhead: each workload's end-to-end medians from traced runs
beside those from untraced runs, and their difference.

Run from the repository root:

    python3 perfbench/overhead.py [--runs N] [--workload NAME ...]

It runs the command in BENCHMARK.json with --trace 0 and --trace 1 on the
same seeds (alternating which goes first) for run_seconds each, and reads
every end-to-end metric each run prints, the unbounded ones included.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

LINE = re.compile(r"^(?:traced-run|run) end_to_end (\S+) = (\S+) (\S+)$")


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{out.stderr[-2000:]}")
    if not json.loads(lines[-1])["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: wrong decisions")
    metrics = {}
    for line in lines:
        match = LINE.match(line)
        if match:
            metrics[match.group(1)] = (float(match.group(2)), match.group(3))
    return metrics


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", action="append",
                        default=None, help="repeatable; default: every workload")
    opts = parser.parse_args()
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    for workload in workloads:
        samples = {0: {}, 1: {}}
        units = {}
        for seed in range(1, opts.runs + 1):
            order = (0, 1) if seed % 2 else (1, 0)
            for trace in order:
                for name, (value, unit) in run(bench["command"], workload, seed,
                                               seconds, trace).items():
                    samples[trace].setdefault(name, []).append(value)
                    units[name] = unit
        print(f"{workload} ({opts.runs} runs each, {seconds} s)")
        print(f"  {'metric':16s} {'untraced':>12s} {'traced':>12s} {'diff':>8s}")
        for name, unit in units.items():
            plain = statistics.median(samples[0][name])
            traced = statistics.median(samples[1][name])
            diff = f"{100 * (traced - plain) / plain:+.1f}%" if plain else "n/a"
            print(f"  {name:16s} {plain:12.4g} {traced:12.4g} {diff:>8s}  {unit}")


if __name__ == "__main__":
    main()
