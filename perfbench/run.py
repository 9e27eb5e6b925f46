#!/usr/bin/env python3
"""Build hsd's end-to-end benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 8 --trace 0

Every argument is passed to the benchmark binary. The build cache, the
binary and everything the benchmark writes stay under .bench_build/ in
the current directory. A failed build exits non-zero without printing a
result line.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for key in ("GOCACHE", "GOPATH", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return built.returncode
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
