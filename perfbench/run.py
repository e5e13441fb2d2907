#!/usr/bin/env python3
"""Builds the request-level benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan_probe --seed 1 --seconds 15 --trace 0

Every argument is passed to the benchmark binary. Cargo output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Builds
land in $CARGO_TARGET_DIR, by default `.bench_build` at the repository root.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "rangeamp-perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
