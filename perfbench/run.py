#!/usr/bin/env python3
"""Build the perfbench Go module from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload otp-keyrace --seed 1 --seconds 10 --trace 0

The Go build cache and the binary live under .bench_build/ in the
current directory, so nothing is read or written outside the checkout.
The benchmark's own exit status is passed through; a failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(out_dir, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(root, ".bench_build", "gocache"),
        GOPATH=os.path.join(root, ".bench_build", "gopath"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
