#!/usr/bin/env python3
"""Steadiness check: run every workload over several seeds and report spreads.

    python3 perfbench/steadiness.py [--seeds 1,2,...] [--seconds 30]

Run from the repository root.  Each round runs every workload once,
untraced, each in its own process (perfbench/run.py), with one seed per
round; the workload order alternates between rounds so no workload always
runs first.  Prints one line per run, then per workload a markdown table of
every run's values (the bounded metrics, then the unbounded statistics the
run prints beside them) with their median and spread: the distance between
the first and third quartile, as statistics.quantiles(values, n=4) gives
them, as a share of the median.  The per-set tables in STEADINESS.md are
this output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("jac-dyad", "stmv-dyad", "advise-dag")
BOUNDED = ("frames_per_s", "setup_s", "peak_rss_mb")
UNBOUNDED = ("rep_ms_p50", "rep_ms_tail", "frames_per_s_mean", "ref_ms")


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    info = {}
    for line in lines:
        if line.startswith("perfbench run: "):
            info = json.loads(line[len("perfbench run: "):])
    result = json.loads(lines[-1]) if lines else {}
    if r.returncode != 0 or not result.get("correct"):
        print(f"{workload} seed {seed}: FAILED (exit {r.returncode})",
              flush=True)
    values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    values.update({k: info[k] for k in UNBOUNDED if k in info})
    return {"seed": seed, "correct": bool(result.get("correct")),
            "attempted": result.get("attempted", 0),
            "failed": result.get("failed", 0), "values": values}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def fmt(name, x):
    if name.startswith("frames"):
        return f"{x:.0f}"
    return f"{x:.4f}" if name.startswith("setup") else f"{x:.1f}"


def table(workload, runs):
    print(f"\n`{workload}`:\n")
    print("| metric | " + " | ".join(f"seed {r['seed']}" for r in runs) +
          " | median | spread |")
    print("|---|" + "---|" * (len(runs) + 2))
    for name in BOUNDED + UNBOUNDED:
        values = [r["values"][name] for r in runs if name in r["values"]]
        if len(values) != len(runs):
            continue
        med, s = spread(values)
        label = f"`{name}`" + ("" if name in BOUNDED else " (unbounded)")
        print(f"| {label} | " + " | ".join(fmt(name, x) for x in values) +
              f" | {fmt(name, med)} | {s:.3f} |")
    print(f"\nEvery run passed the gate: {all(r['correct'] for r in runs)}. "
          f"Repetitions gated: {sum(r['attempted'] for r in runs)}; "
          f"failed: {sum(r['failed'] for r in runs)}.")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    runs = {w: [] for w in WORKLOADS}
    for i, seed in enumerate(seeds):
        order = WORKLOADS if i % 2 == 0 else tuple(reversed(WORKLOADS))
        for w in order:
            run = run_one(w, seed, args.seconds)
            runs[w].append(run)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in run["values"].items()), flush=True)
    for w in WORKLOADS:
        table(w, runs[w])


if __name__ == "__main__":
    main()
