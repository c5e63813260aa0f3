#!/usr/bin/env python3
"""Builds the gomil CLI and the benchmark from source, then runs the benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload gen-ilp --seed 1 --seconds 45 --trace 0

Both builds go to CARGO_TARGET_DIR (default: .bench_build at the root).
Cargo's output goes to standard error, so the benchmark's result stays the
last line of standard output.
"""
import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "gomil", "--bin", "gomil"],
        ["--manifest-path", os.path.join(bench, "Cargo.toml")],
    ]
    for args in builds:
        done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                              env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode)
    exe = os.path.join(target, "release", "gomil-e2ebench")
    gomil = os.path.join(target, "release", "gomil")
    sys.stdout.flush()
    os.execv(exe, [exe, "--gomil", gomil] + sys.argv[1:])


if __name__ == "__main__":
    main()
