#!/usr/bin/env python3
"""Build the SGFS benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lan-seqread --seed 1 --seconds 10 --trace 0

The binary, the Go build cache and the benchmark's scratch files and
traces stay under .bench_build/ in the checkout. The last line of
standard output is the result as one JSON object. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    for d in ("tmp", "config", "cache"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([exe] + sys.argv[1:], cwd=root, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
