#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bc-sync-write --seed 1 \
        --seconds 15 --trace 0

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/, or into $CARGO_TARGET_DIR when that is set; later runs only
re-check the build. Build output goes to stderr so that the last line of
stdout stays the benchmark's JSON result. Results and traces are written
under .bench_out/. Exits nonzero, without a result line, when the sources
are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bc-sync-write", "tile-read", "mixed-load")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} did not finish: {e}")
        if code != 0:
            fail(f"build step {' '.join(cmd[:2])} failed with code {code}")
    return out / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload (smoke test)")
    ap.add_argument("--flip-byte", action="store_true",
                    help="corrupt one expected byte (smoke test)")
    args = ap.parse_args()

    binary = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    if args.tiny:
        cmd.append("--tiny")
    if args.flip_byte:
        cmd.append("--flip-byte")
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
