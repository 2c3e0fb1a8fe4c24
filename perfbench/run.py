#!/usr/bin/env python3
"""Build and run the tdmroute benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 10 --trace 0

It builds the perfbench program (a Go module of its own in this directory
that uses the repository's module through a replace directive), the
instance generator cmd/gen, and the tdmroutd and tdmcoord servers into
.bench_build/bin, keeping every Go cache and temporary file under
.bench_build, then runs perfbench with the given arguments. perfbench prints the result as its last line of output. Any build
or run failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    os.makedirs(bindir, exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOFLAGS="", GOPROXY="off",
               CGO_ENABLED="0")

    def go(args, cwd):
        done = subprocess.run(["go"] + args, cwd=cwd, env=env,
                              stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: go %s failed in %s" % (" ".join(args), cwd))

    here = os.path.dirname(os.path.abspath(__file__))
    go(["build", "-o", bindir + os.sep, "./cmd/gen", "./cmd/tdmroutd",
        "./cmd/tdmcoord"], root)
    go(["build", "-o", os.path.join(bindir, "perfbench"), "."], here)
    done = subprocess.run([os.path.join(bindir, "perfbench")] + sys.argv[1:],
                          cwd=root)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
