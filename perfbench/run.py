#!/usr/bin/env python3
"""Same-host simulator benchmark: build, run one workload, print the result.

    python3 perfbench/run.py --workload <jac-dyad|stmv-dyad|advise-dag>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds the
simulator and the benchmark programs under .bench_build/perfbench (Release);
later calls rebuild only what changed.  --trace 0 runs perfbench_e2e (the
untraced end-to-end metrics), --trace 1 runs perfbench_trace (the per-layer
metrics).  Each call runs one workload in its own process.

Stdout: a host fingerprint line, the program's own lines, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.
Exit status 0 when every repetition passed the correctness gate; 1 on a gate
failure (the result is still printed, with "correct": false) and on a build
or set-up failure (no result is printed).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("jac-dyad", "stmv-dyad", "advise-dag")
# A run must end within 180 s; --seconds plus set-up stays far below this.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target",
              "perfbench_e2e", "perfbench_trace"]]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the simulator and benchmark sources (works without git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {"cpu": cpu, "nproc": os.cpu_count(), "commit": commit,
            "sources": source_digest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    program = "perfbench_trace" if args.trace else "perfbench_e2e"
    print("perfbench host: " + json.dumps(fingerprint()), flush=True)
    cmd = [os.path.join(BUILD, program), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload}: {program} timed out")
    lines = r.stdout.splitlines()
    if r.returncode not in (0, 1) or not lines:
        fail(f"workload {args.workload}: {program} exited {r.returncode}")
    for line in lines[:-1]:
        print(line)
    out = json.loads(lines[-1])
    info = {k: v for k, v in out.items() if k != "metrics"}
    print("perfbench run: " + json.dumps(info))
    correct = r.returncode == 0 and out["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
