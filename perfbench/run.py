#!/usr/bin/env python3
"""Build and run the NETKIT benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload fwd-64b --seed 1 --seconds 10 --trace 0

The Go program is built from source into the build directory (the
CARGO_TARGET_DIR environment variable if set, else .bench_build), with the
Go build cache, module cache and temporary files kept there too, so nothing
is written outside the checkout; the commit comes from the checkout's own
git metadata when it has some. The last line of standard output is the
result as one JSON object. Traced runs (--trace 1) also write a Chrome
trace-event file into the build directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.stderr.write("perfbench: no go.mod next to perfbench/: run it from a NETKIT checkout\n")
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    out = os.path.join(build, "perfbench")
    for d in ("gocache", "gomodcache", "tmp", "out"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "PERFBENCH_OUT": os.path.join(out, "out"),
    })
    git = os.path.join(root, ".git")
    if os.path.exists(git):
        rev = subprocess.run(["git", "--git-dir", git, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True)
        if rev.returncode == 0:
            env["PERFBENCH_COMMIT"] = rev.stdout.strip()
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    ran = subprocess.run([binary] + sys.argv[1:], env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
