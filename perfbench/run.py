#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-chaos --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Arguments are passed through to the program (see perfbench/README.md). The
Go build cache, module cache and binary live under .bench_build/ in the
repository root, so nothing is read or written outside it.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))
            and os.path.isfile(os.path.join(bench, "go.mod"))):
        sys.stderr.write("perfbench: run from the repository root; the module "
                         "it benchmarks (go.mod, internal/) is missing\n")
        return 2

    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomod"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
