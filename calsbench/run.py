#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 calsbench/run.py --workload congested|orchestrate|serve \
        --seed N --seconds S --trace 0|1 [--tiny]

Run it from anywhere inside a checkout of the repository: it changes to
the checkout's root, builds calsbench/main.exe with dune (build output
goes to stderr) and runs it with the given arguments. The last line of
standard output is the result object; the exit code is the benchmark's.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "calsbench", "main.exe")


def main():
    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "calsbench: %s is not a checkout of the repository "
            "(no dune-project or lib/)\n" % ROOT
        )
        return 2
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./calsbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
