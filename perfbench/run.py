#!/usr/bin/env python3
"""Builds and runs the hbmrd performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload hc_campaign --seed 1 --seconds 20 \
        --trace 0

The script configures and builds perfbench/ (which compiles the simulator
libraries from src/) into .bench_build/perfbench, then runs the benchmark
binary with the same arguments. Everything the binary prints goes to
stdout; its last line is the JSON result. Build output goes to stderr.
Exit status: the binary's, or 1 when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hbmrd_perfbench")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        os.makedirs(BUILD, exist_ok=True)
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          check=False).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, check=False).returncode == 0


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    commit = result.stdout.strip()
    return commit if result.returncode == 0 and commit else "unknown"


def main():
    try:
        built = build()
    except OSError as error:
        log("build failed: %s" % error)
        return 1
    if not built or not os.path.exists(BINARY):
        log("build failed")
        return 1
    args = [BINARY] + sys.argv[1:] + ["--commit", git_commit()]
    return subprocess.run(args, cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
