#!/usr/bin/env python3
"""Build the benchmark from the checkout it sits in, then run it.

    python3 perfbench/run.py --workload epc-line --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go build cache and the binary live in
.bench_build/ inside the checkout, so nothing is written outside it. The
benchmark's arguments are passed through unchanged; its exit code is
returned. Without the engine's sources next to perfbench/ the build fails
and no result is printed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main() -> int:
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench-bin")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=700)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    run = subprocess.run([binary, "-root", ROOT, "-out", os.path.join(BUILD, "perfbench")]
                         + sys.argv[1:], cwd=ROOT, env=env, timeout=175)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
