#!/usr/bin/env python3
"""Build the repository's binaries and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds cqa_server, cqa_cli and the
benchmark program with dune (the first run in a fresh checkout compiles
everything), then hands over to that program, whose last line of stdout is
the JSON result.  Exits with status 2, printing no result, when the
checkout does not hold the sources to build.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve_fo_rw", "cli_fo_bulk", "cli_tiers"]
SOURCES = ["dune-project", "bin/cqa_server.ml", "bin/cqa_cli.ml", "lib/server/loop.ml", "perfbench/dune"]
BUILD = "_build/default"
OUT = ".perfbench-out"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()
    missing = [f for f in SOURCES if not os.path.isfile(f)]
    if missing:
        fail("run from the root of a checkout of the repository; missing " + ", ".join(missing))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    targets = ["./bin/cqa_server.exe", "./bin/cqa_cli.exe", "./perfbench/bench.exe"]
    # Build output goes to stderr: the last line of stdout is the result.
    # The shared dune cache lives outside the checkout, so it is off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", "."] + targets, stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")
    os.makedirs(OUT, exist_ok=True)
    bench = os.path.join(BUILD, "perfbench", "bench.exe")
    args = [bench, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--bin", os.path.join(BUILD, "bin"), "--out", OUT]
    sys.stdout.flush()
    os.execv(bench, args)


if __name__ == "__main__":
    main()
