#!/usr/bin/env python3
"""Builds the hop-cost benchmark from source and runs one workload.

    python3 perfbench/run.py --workload walk-sim --seed 1 --seconds 30 --trace 0

Run it from the root of the repository.  The first run configures and builds
perfbench/ (the kernel libraries under src/ plus the benchmark program) in
.bench_build/perfbench; later runs only check that build is up to date.  Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result.  With --trace 1 the spans of the traced run are
written to .bench_build/perfbench/traces/<workload>.tsv.
"""
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# A run measures for at most 60 s plus set-up, warm-up and drain; a build
# finishes well within the first-run allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no kernel sources under src/; run from the repository root",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    args = list(argv)
    if "--trace" in args and args.index("--trace") + 1 < len(args) \
            and args[args.index("--trace") + 1] != "0" and "--trace-out" not in args:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{os.path.basename(workload)}.tsv")]
    try:
        done = subprocess.run([str(BUILD / "perfbench"), *args], timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
