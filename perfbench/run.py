#!/usr/bin/env python3
"""Build the programs from source and run one workload of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout of the repository.  Builds hrserve and
the benchmark program (perfbench/main.ml) with dune (shared dune cache
off, so nothing is written outside the checkout), then runs it; its
last stdout line is the result object.  Exits 2 without a result when the
repository sources are missing or the build fails.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
BUILD = "_build/default/"
DRIVER = "perfbench/main.exe"
SELFTEST = "perfbench/selftest.exe"
HRSERVE = "bin/hrserve.exe"
SOURCES = ["dune-project", "lib/core/dune", "lib/serve/dune", "bin/hrserve.ml"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(argv, timeout, stdout=None):
    """Run argv in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (argv[0], timeout))


def build(targets):
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("repository sources not found (%s); run from a checkout root"
             % ", ".join(missing))
    os.environ["DUNE_CACHE"] = "disabled"
    code = run_group(["dune", "build", "--root", ".", "--display", "quiet"]
                     + targets, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed (dune exit %d)" % code)


def main(args):
    if args == ["--self-test"]:
        build([SELFTEST])
        sys.exit(run_group(["./" + BUILD + SELFTEST], RUN_TIMEOUT_S))
    build([HRSERVE, DRIVER])
    sys.stdout.flush()
    sys.exit(run_group(["./" + BUILD + DRIVER] + args, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main(sys.argv[1:])
