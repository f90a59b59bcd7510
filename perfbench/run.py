#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload serve-fleet --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --smoke

The first form builds the library from ../src and the perfbench binary
(CMake, Release) into $CARGO_TARGET_DIR (default .bench_build) under the
repository root, then runs one workload. The binary's last stdout line is
the result JSON. The second form is the harness self-check: every workload
at tiny sizes, traced and untraced, checked against the metric names and
units in BENCHMARK.json, plus one run with a corrupted reference alarm that
the correctness gate must catch.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train-contextact", "serve-fleet", "ingest-churn"]
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configures and builds; returns the binary path, or None on failure."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                return None
        jobs = str(max(1, os.cpu_count() or 1))
        compile_cmd = ["cmake", "--build", out, "-j", jobs]
        if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args, capture):
    work = os.path.join(build_dir(), "work")
    command = [binary] + args + ["--work-dir", work]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def smoke(binary):
    """Returns a list of problems; empty when the harness is sound."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = None
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "7", "--seconds", "2",
                    "--trace", str(trace), "--smoke", "1"]
            done = run_binary(binary, args, capture=True)
            label = "%s trace %d" % (workload, trace)
            if done is None or done.returncode != 0:
                problems.append("%s: exit %s" % (
                    label, None if done is None else done.returncode))
                continue
            result = last_json(done.stdout)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(result)))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correctness gate failed" % label)
            for name, metric in result["metrics"].items():
                value = metric.get("value")
                finite = (isinstance(value, (int, float))
                          and math.isfinite(value))
                if not finite:
                    problems.append("%s: %s has no finite value"
                                    % (label, name))
            if spec is not None:
                wanted = {m["name"]: m["unit"]
                          for m in spec["per_layer" if trace else "end_to_end"]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != wanted:
                    missing = sorted(set(wanted) - set(got))
                    extra = sorted(set(got) - set(wanted))
                    units = sorted(n for n in set(got) & set(wanted)
                                   if got[n] != wanted[n])
                    problems.append("%s: missing %s, unlisted %s, unit "
                                    "mismatch %s" % (label, missing, extra,
                                                     units))
    # The alarm gate must catch a corrupted reference alarm.
    args = ["--workload", "serve-fleet", "--seed", "7", "--seconds", "2",
            "--trace", "0", "--smoke", "1", "--corrupt-reference", "1"]
    done = run_binary(binary, args, capture=True)
    result = last_json(done.stdout) if done and done.returncode == 0 else None
    if result is None or result["correct"] or result["failed"] < 1:
        problems.append("corrupted reference alarm was not caught")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and (args.workload is None or args.seed is None
                           or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.smoke:
        problems = smoke(binary)
        for problem in problems:
            print("smoke: " + problem, file=sys.stderr)
        print("smoke: %s" % ("FAILED" if problems else "ok"))
        return 1 if problems else 0

    done = run_binary(binary, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", repr(args.seconds),
                               "--trace", str(args.trace)], capture=False)
    return 1 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main())
