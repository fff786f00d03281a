#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload eplace-a --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (a CMake package on top of
../src) in Release mode under .bench_build/ (or $CARGO_TARGET_DIR when it is
set); later calls rebuild only what changed. Build output goes to stderr, so
the last line of stdout is always the benchmark's JSON result. When the build
fails the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under src/; nothing to build",
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    # Two compile jobs: the box is shared, and the build happens only once
    # per checkout.
    if not run_quiet(["cmake", "--build", bdir, "--target", "perfbench",
                      "-j", "2"]):
        return None
    exe = os.path.join(bdir, "perfbench")
    return exe if os.path.isfile(exe) else None


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # The binary keeps its per-seed result files and Chrome traces here.
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run([exe, "--out-dir", out_dir, "--commit", commit_id()]
                          + sys.argv[1:], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
