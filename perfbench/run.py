#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload build|read|update --seed N \
        --seconds S --trace 0|1

The program (perfbench.cc) is configured with CMake (Release) under the
build directory -- $CARGO_TARGET_DIR when set, else .bench_build/ -- and
brought up to date on every call. Its last stdout line, one JSON object
with the keys correct, attempted, failed and metrics, is the last line
printed here.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "read", "update")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, process_group=0, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(build_dir):
    cmake_dir = build_dir / "perfbench"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ("configure", ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                       str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"]),
        ("build", ["cmake", "--build", str(cmake_dir), "--target",
                   "perfbench", "-j", jobs]),
    ]
    with open(log_path, "w") as log:
        for step, cmd in steps:
            code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=log,
                          stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.stderr.write(f"perfbench: {step} failed ({code})\n")
                return None
    return cmake_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    program = build(build_dir)
    if program is None:
        return 1

    workdir = build_dir / "perfbench-work" / args.workload
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        sys.stderr.write(f"perfbench: {program.name} exited with {code}\n")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
