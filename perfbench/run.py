#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go build cache, the binary and the traced runs' span files all live
under .bench_build/ in the checkout. The binary's standard output is passed
through; its last line is the JSON result. Exits non-zero, without a
result, when the program cannot be built.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(OUT, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOMODCACHE": os.path.join(OUT, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    """Compile the benchmark; returns True on success."""
    os.makedirs(OUT, exist_ok=True)
    cmd = ["go", "build", "-o", BIN, "."]
    try:
        r = subprocess.run(cmd, cwd=PKG, env=go_env(), capture_output=True, text=True)
        if r.returncode != 0 and "buildvcs" in r.stderr:
            # No usable version-control metadata around the checkout.
            r = subprocess.run(cmd[:2] + ["-buildvcs=false"] + cmd[2:], cwd=PKG, env=go_env(),
                               capture_output=True, text=True)
    except OSError as e:
        print(f"perfbench: cannot run go: {e}", file=sys.stderr)
        return False
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def main():
    # Turn SIGTERM into an exception: subprocess.run then kills the running
    # child (go build or the benchmark) and waits for it before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not build():
        return 1
    args = [BIN] + sys.argv[1:] + ["--trace-dir", os.path.join(OUT, "traces")]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
