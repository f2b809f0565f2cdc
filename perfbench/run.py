#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload sort --seed 1 --seconds 20 --trace 0

The Go program in this directory is built into the build directory named
by CARGO_TARGET_DIR (default .bench_build, relative to the repository
root), with the Go build cache, temporary files and tool configuration kept
there as well, so that nothing outside the checkout is read or written. All
arguments are passed to the program; its exit code is returned. Without the
repository around this directory the build fails and nothing is printed on
standard output.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for sub in ("gocache", "gotmp", "gomodcache", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "gotmp"),
        "TMPDIR": os.path.join(build, "gotmp"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-trimpath", "-o", binary, "."],
                           cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
