#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign-gmp --seed 57 --seconds 20 --trace 0

Builds perfbench/main.exe with dune (release profile, build directory
_perfbench/build), then runs it.  Its last line of standard output is the
result object; build output goes to standard error.  The run's
manifest.json, results.json and summary.md are written under
_perfbench/runs/<workload>/seed-<n>-trace-<t>/, and the manifest's
"replay" field is the command that reruns it.
"""

import argparse
import os
import subprocess
import sys

PROFILE = "release"
BUILD_DIR = os.path.join("_perfbench", "build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "testgen"))):
        print("perfbench: run from the root of a checkout of the repository",
              file=sys.stderr)
        return 2

    # every file the build and the run write stays in this checkout
    tmp = os.path.abspath(os.path.join("_perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", PROFILE,
         "--build-dir", os.path.abspath(BUILD_DIR), "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out = os.path.join("_perfbench", "runs", a.workload,
                       "seed-%d-trace-%s" % (a.seed, a.trace))
    os.makedirs(out, exist_ok=True)
    # the runtime-events ring file of a traced run lives here too
    env["OCAML_RUNTIME_EVENTS_DIR"] = out
    run = subprocess.run(
        [EXE, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", a.trace, "--out", out,
         "--nproc", str(len(os.sched_getaffinity(0))), "--commit", commit(),
         "--build-profile", PROFILE],
        env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
