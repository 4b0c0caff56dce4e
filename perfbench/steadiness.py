#!/usr/bin/env python3
"""Repeat-run steadiness check for the benchmark.

Runs the command in BENCHMARK.json --runs times per workload, each time with
another --seed, in --sets sets, and prints a Markdown report.  For every
end-to-end metric of every set it gives the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next
to the metric's bound, and the same for the raw host seconds of a pass and the
host slowdown from the run records.  With two sets or more it compares each
set's medians with the first set's.  Run it from the repository root:

    python3 perfbench/steadiness.py --runs 10 --sets 2 --first-seed 101

which prints perfbench/STEADINESS.md.  Set k uses seeds
first_seed + 100 k .. first_seed + 100 k + runs - 1.

Raw result lines go to .bench_out/steadiness/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, out_dir):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    with open(os.path.join(out_dir, f"{workload}-{seed}.jsonl"), "w") as f:
        f.write("\n".join(lines[-2:]) + "\n")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def spread_row(name, unit, values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    bounds = f"{bound} | {bound / 3:.4f}" if bound is not None else "— | —"
    print(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
          f"{spread:.4f} | {bounds} |")
    return med


def report_set(bench, workload, seeds, out_dir):
    runs = [run_once(bench["command"], workload, seed, bench["run_seconds"],
                     out_dir) for seed in seeds]
    results = [result for _, result in runs]
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    passes = [info["passes"] for info, _ in runs]
    print(f"### {workload}, seeds {seeds[0]}..{seeds[-1]}\n")
    print(f"All correct: {all(r['correct'] for r in results)}; "
          f"{failed} of {attempted} cells failed; "
          f"{min(passes)}–{max(passes)} timed passes per run.\n")
    print("| metric | unit | median | Q1 | Q3 | spread | bound | bound/3 |")
    print("|---|---|---|---|---|---|---|---|")
    medians = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        medians[name] = spread_row(f"`{name}`", metric["unit"], values,
                                   metric["bound"])
    spread_row("raw pass seconds (record)", "s",
               [info["raw_wall_s"]["median"] for info, _ in runs], None)
    spread_row("host slowdown (record)", "ratio",
               [info["host_slowdown"] for info, _ in runs], None)
    print()
    sys.stdout.flush()
    return medians


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=101)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    out_dir = os.path.join(".bench_out", "steadiness")
    os.makedirs(out_dir, exist_ok=True)
    workloads = [w["name"] for w in bench["workloads"]]

    print("# Steadiness of the end-to-end metrics\n")
    print(f"{opts.sets} set(s) of {opts.runs} runs per workload, "
          f"`--seconds {bench['run_seconds']} --trace 0`, run one after another "
          f"on a {os.cpu_count()}-CPU {platform.machine()} host. "
          "Spread = (Q3 − Q1) / median over the runs; the target is a "
          "spread below a third of the bound (`setup_s` exempt). The last two "
          "rows of each table come from the run records and have no bound: "
          "the raw host seconds of a pass, before scaling to the reference "
          "host speed, and the host slowdown the calibration chunks "
          "measured.\n")
    medians = []
    for k in range(opts.sets):
        start = opts.first_seed + 100 * k
        seeds = list(range(start, start + opts.runs))
        print(f"## Set {k + 1}\n")
        medians.append({w: report_set(bench, w, seeds, out_dir)
                        for w in workloads})
    if opts.sets < 2:
        return
    print("## The sets compared\n")
    print("Change of each set's median from set 1's, as a share of set 1's "
          "median; worse is +.\n")
    header = " | ".join(f"set {k + 1}" for k in range(1, opts.sets))
    print(f"| workload | metric | better | {header} | bound |")
    print("|---|---|---|" + "---|" * (opts.sets - 1) + "---|")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sign = 1 if metric["better"] == "lower" else -1
            first = medians[0][w][name]
            changes = " | ".join(
                f"{sign * (m[w][name] - first) / first:+.4f}"
                for m in medians[1:])
            print(f"| {w} | `{name}` | {metric['better']} | {changes} | "
                  f"{metric['bound']} |")


if __name__ == "__main__":
    main()
