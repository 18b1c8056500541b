#!/usr/bin/env python3
"""The benchmark's own tests.

  python3 detbench/test.py

1. detbench --self-test: every correctness check rejects a corrupted
   result (altered checksum, mismatched fingerprint, failed or refused job,
   decoded fallback).
2. ocean_barrier_jit with DETLOCK_JIT_DISABLE=1 (the JIT's documented kill
   switch) must report correct=false and exit non-zero.
3. Each workload prints exactly the metrics BENCHMARK.json declares, with
   their units: the end-to-end ones with --trace 0, the per-layer ones
   with --trace 1.
4. In a directory holding only BENCHMARK.json and detbench/, the benchmark
   must fail at set-up without printing a result: it carries no copy of
   the program.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def test_self_test():
    p = subprocess.run([sys.executable, RUN, "--self-test"], capture_output=True, text=True)
    print(p.stdout, end="")
    return p.returncode == 0


def test_jit_fallback_rejected():
    env = dict(os.environ, DETLOCK_JIT_DISABLE="1")
    args = ["--workload", "ocean_barrier_jit", "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run([sys.executable, RUN] + args, capture_output=True, text=True, env=env)
    result = last_json(p.stdout)
    ok = p.returncode != 0 and result is not None and result["correct"] is False
    print("%s jit fallback rejected (exit %d)" % ("ok  " if ok else "FAIL", p.returncode))
    return ok


def test_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload["name"], "--seed", "7", "--seconds", "1", "--trace", trace]
            p = subprocess.run([sys.executable, RUN] + args, capture_output=True, text=True)
            result = last_json(p.stdout)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {} if result is None else {k: v["unit"] for k, v in result["metrics"].items()}
            good = (p.returncode == 0 and result is not None and result["correct"]
                    and result["failed"] == 0 and got == want)
            print("%s %s --trace %s prints the declared %s metrics" %
                  ("ok  " if good else "FAIL", workload["name"], trace, key))
            ok = ok and good
    return ok


def test_bare_checkout_fails():
    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "detbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "splash_locks", "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run([sys.executable, "detbench/run.py"] + args, cwd=bare,
                       capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    ok = p.returncode != 0 and last_json(p.stdout) is None
    print("%s bare checkout fails at set-up (exit %d)" % ("ok  " if ok else "FAIL", p.returncode))
    return ok


def main():
    results = [test_self_test(), test_jit_fallback_rejected(), test_metric_names(),
               test_bare_checkout_fails()]
    print("all benchmark tests passed" if all(results) else "benchmark tests FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
