#!/usr/bin/env python3
"""Build rfview and the benchmark from source, then run one workload.

Run from the root of an rfview checkout:

    python3 perfbench/run.py --workload point-commit --seed 1 --seconds 20 --trace 0

Builds into .bench_build/ with dune's shared cache off, writes databases,
logs and spans under .bench_out/, and passes the benchmark's output
through: the last line of standard output is the result object.  Exits
non-zero, printing no result, when the sources are missing or do not
build, or when the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKLOADS = ["point-commit", "report-read", "ingest-mixed"]
SOURCES = ["dune-project", "lib", "bin", "perfbench"]


def source_digest():
    """SHA-256 over every source file the measured program is built from."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        print("bench: not an rfview checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 1
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./bin/rfview.exe", "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("bench: build failed", file=sys.stderr)
        return 1
    default = os.path.join(BUILD_DIR, "default")
    cmd = [
        os.path.join(default, "perfbench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rfview", os.path.join(default, "bin", "rfview.exe"),
        "--out", OUT_DIR,
        "--source-digest", source_digest(),
        "--git-rev", git_rev(),
    ]
    # become the benchmark, so signals reach it and it stops the server
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    sys.exit(main())
