#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload grid-sweep --seed 1 --seconds 20 --trace 0

The script builds the benchmark (e2ebench/) and the lbbench binary that
spawn-sweep launches from the source tree around it, with the Go build
cache, module cache and every output kept under .bench_build/ in the
repository root, then runs the benchmark with the given arguments. Building
is preparation: the benchmark's own set-up time is measured inside the run.
Exit status is the benchmark's; a failed build exits 2 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build(env):
    bench = os.path.join(BUILD, "bin", "e2ebench")
    lbbench = os.path.join(BUILD, "bin", "lbbench")
    steps = [
        (HERE, ["go", "build", "-o", bench, "."]),
        (ROOT, ["go", "build", "-o", lbbench, "./cmd/lbbench"]),
    ]
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.stderr.write("e2ebench: build failed: %s (in %s)\n" % (" ".join(cmd), cwd))
            return None
    return bench, lbbench


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("e2ebench: no go.mod at %s: run from a checkout of the repository\n" % ROOT)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    built = build(env)
    if built is None:
        return 2
    bench, lbbench = built
    args = [bench] + sys.argv[1:] + [
        "--lbbench", lbbench,
        "--work-dir", os.path.join(BUILD, "work"),
    ]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
