#!/usr/bin/env python3
"""Build and run one perfbench measurement.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds the library and the
perfbench binary from that checkout's sources into .bench_build/ (CMake,
Release; the first build takes about a minute), then runs the binary
once. Its result object is the last line of stdout. The exit status is
nonzero when the checkout has no sources to build, the build fails, an
output check fails, or the printed metrics are not exactly the ones
BENCHMARK.json declares for the mode.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("finetune-mcunet", "chat-llama", "classify-mcunet-int8")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no source tree in {ROOT}; "
                 "run from the root of a checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [str(BUILD / "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    # A run must end within 180 s; the binary itself stops at --seconds
    # plus set-up and checks.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: the binary printed no result "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    differ = declared(a.trace) ^ set(result["metrics"])
    if differ:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: "
                 + ", ".join(sorted(differ)))
    print("\n".join(lines), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
