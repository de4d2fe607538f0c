#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 hostbench/selftest.py

Builds the driver and the GoogleTest binary (hostbench_test), runs the
latter (golden anchor, matrix, reference coverage, in-process scrub),
then checks the driver as a process:

  * an altered reference digest shows up as exactly one failed operation
    per pass;
  * with every ATSCALE_* variable set, jobs still run cold, leave the run
    cache and stream directories untouched, and match their references,
    untraced and traced, on one thread;
  * in a directory holding only BENCHMARK.json and hostbench/, run.py
    exits non-zero without printing a result.

Takes about a minute. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORK_DIR = os.path.join(run.BUILD, "selftest")
HOSTILE = {
    "ATSCALE_NO_BATCH": "1",
    "ATSCALE_NO_FASTPATH": "1",
    "ATSCALE_SCHEME": "hashed",
    "ATSCALE_THREADS": "4",
    "ATSCALE_LANES": "1",
    "ATSCALE_NO_LANES": "1",
    "ATSCALE_SHARD": "1/2",
    "ATSCALE_QUICK": "1",
}


def check(condition, what):
    print(("ok   " if condition else "FAIL ") + what, flush=True)
    if not condition:
        sys.exit(1)


def driver(workload, refs, env, trace=0, max_jobs=3, seed=5):
    """Run the driver directly; return (info, result)."""
    out = subprocess.run(
        [run.DRIVER, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--references", refs,
         "--max-jobs", str(max_jobs)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        cwd=run.ROOT, text=True, timeout=170)
    check(out.returncode == 0, "driver %s exits 0" % workload)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def tampered_reference():
    refs = os.path.join(WORK_DIR, "refs")
    shutil.copytree(os.path.join(run.HERE, "references"), refs)
    # --seed 5 selects spec seed 6; alter the digest of its second job.
    path = os.path.join(refs, "fig01-4k.tsv")
    with open(path) as f:
        lines = f.read().splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if line.startswith("6\t")]
    seed, key, digest = lines[rows[1]].rstrip("\n").split("\t")
    flipped = "%016x" % (int(digest, 16) ^ 1)
    lines[rows[1]] = "\t".join((seed, key, flipped)) + "\n"
    with open(path, "w") as f:
        f.writelines(lines)
    _, result = driver("fig01-4k", refs, run.scrubbed_env())
    passes = result["attempted"] // 3
    check(result["correct"] is False and result["failed"] == passes,
          "an altered digest fails exactly its job (%d of %d operations)"
          % (result["failed"], result["attempted"]))


def hostile_environment():
    cache = os.path.join(WORK_DIR, "cache")
    streams = os.path.join(WORK_DIR, "streams")
    out = os.path.join(WORK_DIR, "out")
    for d in (cache, streams, out):
        os.makedirs(d)
    env = dict(os.environ, ATSCALE_CACHE_DIR=cache,
               ATSCALE_STREAM_DIR=streams, ATSCALE_OUT_DIR=out, **HOSTILE)
    refs = os.path.join(run.HERE, "references")
    for workload, max_jobs in (("fig01-4k", 3), ("fig01-huge", 3),
                               ("multicore-schemes", 24)):
        for trace in (0, 1):
            info, result = driver(workload, refs, env, trace, max_jobs)
            check(result["correct"] and result["failed"] == 0,
                  "%s trace=%d under every ATSCALE_* knob: %d operations, "
                  "0 failed" % (workload, trace, result["attempted"]))
            check(info["threads"] == 1, "%s trace=%d ran on one thread"
                  % (workload, trace))
    check(not os.listdir(cache) and not os.listdir(streams)
          and not os.listdir(out),
          "no run-cache, stream or output file was written")

    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         "multicore-schemes", "--seed", "2", "--seconds", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        cwd=run.ROOT, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(done.returncode == 0 and result["correct"],
          "run.py under every ATSCALE_* knob")


def bare_directory():
    bare = os.path.join(WORK_DIR, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "hostbench"))
    done = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "fig01-4k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=bare,
        text=True, timeout=170)
    check(done.returncode != 0 and "correct" not in done.stdout,
          "without the repository, run.py fails and prints no result")


def main():
    check(run.build(("hostbench_driver", "hostbench_test")),
          "driver and test build")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    gtest = subprocess.run([os.path.join(run.BUILD, "hostbench_test")],
                           cwd=run.ROOT, env=run.scrubbed_env())
    check(gtest.returncode == 0, "hostbench_test")
    tampered_reference()
    hostile_environment()
    bare_directory()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
