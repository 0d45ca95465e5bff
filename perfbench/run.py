#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload sweep|swarm|serve --seed N \
        --seconds S --trace 0|1 [--tiny] [--corrupt]

Run from the root of a checkout. Builds perfbench/ (which compiles the
repository's libraries from src/) into .bench_build/perfbench, then runs one
workload in a fresh directory under .bench_runs/ with observability pinned
off. The driver's report goes to stdout; its last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. A traced run (--trace 1) also
leaves its span file at .bench_runs/spans-<workload>.jsonl.

Exits non-zero, printing no result, when the repository sources are absent
or the build fails; exits non-zero with a result when any check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_runs")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then (re)builds; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def quiet_environment():
    """The parent environment minus every DSA_* knob, with each
    observability switch pinned off."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DSA_")}
    env.update(DSA_STATUS="off", DSA_PROF="off", DSA_RECORD="off",
               DSA_METRICS="0")
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "swarm", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-scale inputs (the benchmark's tests)")
    parser.add_argument("--corrupt", action="store_true",
                        help="alter one answer; the run must then fail")
    args = parser.parse_args()

    binary = build()
    os.makedirs(RUNS, exist_ok=True)
    name = "%s-seed%d-trace%d-%d-%d" % (args.workload, args.seed, args.trace,
                                        os.getpid(), time.time_ns())
    workdir = os.path.join(RUNS, name)
    spans = os.path.join(RUNS, name + ".spans.jsonl")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--commit", commit()]
    if args.trace:
        command += ["--spans", spans]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command.append("--corrupt")
    sys.stdout.flush()
    try:
        code = subprocess.run(command, env=quiet_environment(),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    if os.path.exists(spans):
        os.replace(spans, os.path.join(RUNS, "spans-%s.jsonl" % args.workload))
    if code == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        print("perfbench: run directory kept at " + workdir, file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
