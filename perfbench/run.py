#!/usr/bin/env python3
"""Deployed-path benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the repository's libraries, the
`stpt_serve` binary and the benchmark runner (Release, into .bench_build/),
then runs one workload and prints its metrics. The last stdout line is the
JSON result. Build output goes to stderr.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_durable", "query_zipf", "live_mixed", "batch_release")
BUILD_TYPE = "Release"


def build(build_dir):
    """Configures and builds the runner; returns its path or None."""
    rc = subprocess.call(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        stdout=sys.stderr)
    if rc != 0:
        return None
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "perfbench_runner"],
        stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_runner") if rc == 0 else None


def source_id():
    """Commit id when run inside git, else a hash of the program sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: repository sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    runner = build(build_dir)
    if runner is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    # The runner and the servers it starts share a new process group, so a
    # timeout stops all of them.
    proc = subprocess.Popen(
        [runner, "--workload=" + args.workload, "--seed=%d" % args.seed,
         "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
         "--server=" + os.path.join(build_dir, "tools", "stpt_serve"),
         "--work-dir=" + work_dir, "--commit=" + source_id(),
         "--build-type=" + BUILD_TYPE],
        start_new_session=True)
    try:
        rc = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: runner timed out", file=sys.stderr)
        rc = 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
