#!/usr/bin/env python3
"""Build sjbench from source and run one benchmark workload.

Usage:
    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Workloads: skew-2d, sparse-6d, serve-mix, churn-2d (perfbench/README.md).
The benchmark and the library sources it measures are compiled into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench at the root
of the checkout); later runs rebuild only what changed. Build output
goes to stderr; stdout is sjbench's, whose last line is the result JSON.
With --trace 1 the Chrome trace and the full layer table are written to
<build dir>/out/. The exit code is sjbench's: 0 when every check
passed, 1 when one failed, anything else when the build or run broke.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def default_build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(build_dir, src_root):
    """Configures once, then lets the build system rebuild what changed."""
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *gen,
                        "-DCMAKE_BUILD_TYPE=Release",
                        f"-DGSJ_ROOT={src_root}"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "sjbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["skew-2d", "sparse-6d", "serve-mix", "churn-2d"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--src-root", default=ROOT,
                    help="source tree to benchmark (default: this checkout)")
    ap.add_argument("--build-dir", default=None,
                    help="build directory (default: $CARGO_TARGET_DIR/"
                         "perfbench or .bench_build/perfbench)")
    args = ap.parse_args()

    build_dir = os.path.abspath(args.build_dir or default_build_dir())
    try:
        exe = build(build_dir, os.path.abspath(args.src_root))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--out", os.path.join(build_dir, "out")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
