#!/usr/bin/env python3
"""Host-time benchmark of the atscale simulator (see README.md).

Run from the repository root:

    python3 hostbench/run.py --workload fig01-4k --seed 1 --seconds 20 --trace 0

Builds the driver from source into .bench_build/hostbench, runs one
workload in a child process with every ATSCALE_* variable removed from
its environment, and prints two lines: host-noise diagnostics, then the
result object (the last line). Exits non-zero, printing no result, if
the build or the driver fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
DRIVER = os.path.join(BUILD, "hostbench_driver")
DRIVER_TIMEOUT_S = 170


def scrubbed_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("ATSCALE_")}


def build(targets=("hostbench_driver",)):
    """Configure (once) and build the given targets; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("hostbench: no src/ next to hostbench/; run from a full "
              "checkout of the repository", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j2", "--target", *targets])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=scrubbed_env())
        if done.returncode != 0:
            print("hostbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def steal_ticks():
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def cpu_model():
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def run_driver(args):
    """Run the driver; return (info dict, result dict) or None on failure."""
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--references", os.path.join(HERE, "references")]
    host = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "load1_start": os.getloadavg()[0]}
    steal0 = steal_ticks()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=scrubbed_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("hostbench: driver timed out", file=sys.stderr)
        return None
    host["load1_end"] = os.getloadavg()[0]
    host["steal_ticks"] = steal_ticks() - steal0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print("hostbench: driver exited %d" % proc.returncode,
              file=sys.stderr)
        return None
    try:
        info = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("hostbench: driver printed no result", file=sys.stderr)
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("hostbench: malformed result", file=sys.stderr)
        return None
    host.update(info)
    return host, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    outcome = run_driver(args)
    if outcome is None:
        return 1
    host, result = outcome
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
