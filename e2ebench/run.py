#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Usage, from the repository root:

    python3 e2ebench/run.py --workload {realorg,paper-dense,all}
        [--seed N] [--seconds S] [--trace 0|1]

The benchmark is a Cargo package of its own (e2ebench/Cargo.toml, with a
path dependency on the workspace crates). It is built in release mode into
$CARGO_TARGET_DIR, default .bench_build, resolved against the current
directory as Cargo does. Build output goes to stderr, so the benchmark's
result line stays the last line of stdout. Without the workspace crates
the build fails and the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "e2ebench")
    args = [binary, *sys.argv[1:], "--out-dir", os.path.join(HERE, "out")]
    return subprocess.run(args, cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
