#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library modules and the perfbench executable into .bench_build/ (CMake,
Release); later runs only re-check the build. The benchmark's last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}; this
wrapper checks that its metric names and units are exactly those
BENCHMARK.json lists for the mode (--trace 0: end_to_end, --trace 1:
per_layer) and exits non-zero otherwise, or when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Git commit when the root is a git checkout, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            return f"git:{sha}"
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.relpath(HERE, ROOT)):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "include", "nvcim", "serve",
                                       "engine.hpp")):
        fail("library sources (src/) not found; run from the repository root")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                              *generator], stdout=subprocess.DEVNULL, timeout=600)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    out = subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                         capture_output=True, text=True, timeout=840)
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", BUILD, "--source-id", source_id()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.rstrip("\n").split("\n")
    result_line = lines.pop() if lines and lines[-1].startswith("{") else None
    if lines:
        print("\n".join(lines))
    sys.stdout.flush()
    if result_line is None:
        fail(f"benchmark exited with code {proc.returncode} and printed no result")
    result = json.loads(result_line)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"unit mismatch {units}")
    print(result_line)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
