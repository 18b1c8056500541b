#!/usr/bin/env python3
"""Builds the DetLock benchmark from source and runs one workload.

  python3 detbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 detbench/run.py --self-test
  python3 detbench/run.py --regen

Run from the root of a checkout.  The build (CMake, RelWithDebInfo) goes to
.bench_build/detbench under the checkout root; build output goes to stderr,
so the last line of stdout is the benchmark's JSON result.  --regen rewrites
detbench/inputs from the workload generators and the fuzzer (see
README.md); commit the result to change what the benchmark measures.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "detbench")


def build(target):
    """Configures on first use and builds `target`; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step = ["cmake", "-S", HERE, "-B", BUILD]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # re-configure next time
            sys.exit("run.py: cmake configure failed")
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build of %s failed" % target)
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--regen"]:
        regen = build("detbench_regen")
        inputs = os.path.join(HERE, "inputs")
        staging = os.path.join(ROOT, ".bench_build", "inputs.new")
        shutil.rmtree(staging, ignore_errors=True)
        if subprocess.run([regen, ROOT, staging]).returncode != 0:
            sys.exit("run.py: regeneration failed; inputs left unchanged")
        shutil.rmtree(inputs, ignore_errors=True)
        shutil.move(staging, inputs)
        return 0
    bench = build("detbench")
    if argv == ["--self-test"]:
        return subprocess.run([bench, "--self-test"]).returncode
    return subprocess.run([bench] + argv + ["--inputs", os.path.join(HERE, "inputs")]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
