#!/usr/bin/env python3
"""Build and run the chipletnet benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sparse-hc6 --seed 1 --seconds 30 --trace 0

Workloads: sparse-hc6 and dse-16. The program is built from source into
.bench_build/ with the Go toolchain on PATH; the build cache, span dumps
and scratch stores stay there too. The last line of standard output is the JSON result; see
perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no chipletnet module at %s: run from the root of a repository checkout" % ROOT)

    # Keep every file the toolchain writes (build cache, temporary work
    # directories, telemetry counters) inside the build directory.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-buildvcs=false",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench-bin")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    commit = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except OSError:
        pass

    run = subprocess.run([binary, "-workload", args.workload, "-seed", str(args.seed),
                          "-seconds", str(args.seconds), "-trace", str(args.trace),
                          "-commit", commit, "-out", os.path.join(BUILD, "perfbench")],
                         cwd=ROOT, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
