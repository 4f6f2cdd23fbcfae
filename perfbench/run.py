#!/usr/bin/env python3
"""Build and run the serve benchmark.

    python3 perfbench/run.py --workload steady|drift|writes --seed N \
        --seconds S --trace 0|1

Builds perfbench/serve_bench.exe with dune from the source tree this file
sits in, then runs it single-domain.  Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result.  Exits non-zero when
the build fails, the benchmark fails its correctness gate, or it overruns
its time limit.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TARGET = "./perfbench/serve_bench.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    # Keep dune's build cache inside the checkout: no shared cache.
    env["DUNE_CACHE"] = "disabled"
    # One domain everywhere: the serve config says jobs = 1, and this
    # covers any library code that falls back to the process default.
    env["CDDPD_JOBS"] = "1"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", str(ROOT), "--display", "quiet", TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("build failed", file=sys.stderr)
        return 1
    exe = ROOT / "_build" / "default" / "perfbench" / "serve_bench.exe"
    try:
        run = subprocess.run([str(exe), *sys.argv[1:]], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
