#!/usr/bin/env python3
"""Smoke test of the cycle benchmark: every workload at a small scale.

    python3 cyclebench/smoke_test.py

Runs m1-cold, m4-cold and m1-drift at Table II factor 96 (seconds each), so
every output check of cycle_bench runs: plan validation, fault-free
execution to the target, feasibility and delivered-affinity audits, the
solve-budget guard, the Table II service count, and round-to-round
bit-identity. For each workload it asserts:

  * an untraced run exits 0 with correct=true and prints every end-to-end
    metric of BENCHMARK.json with its unit;
  * two traced runs of one seed exit 0, print every per-layer metric, write
    a loadable trace file, and report identical per-cycle registry counts;
  * the end-to-end quality metrics repeat bit-for-bit across two runs.

Finally it checks that the benchmark fails without printing a result when
the program's sources are absent. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
FACTOR = "96"
SEED = "1"
QUALITY = ("gained_affinity", "certificate_gap", "migration_batches")


def run(workload, trace):
    cmd = ["python3", os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", SEED, "--seconds", "1", "--trace", str(trace),
           "--factor", FACTOR]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(proc, what):
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"FAIL {what}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"FAIL {what}: {result}")
    return result


def expect_metrics(result, specs, what):
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise SystemExit(f"FAIL {what}: metric {spec['name']} missing or "
                             f"not in {spec['unit']}: {got}")
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    if extra:
        raise SystemExit(f"FAIL {what}: unexpected metrics {sorted(extra)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    results_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
        "results")

    for workload in ("m1-cold", "m4-cold", "m1-drift"):
        first = result_of(run(workload, 0), f"{workload} untraced")
        expect_metrics(first, benchmark["end_to_end"], workload)
        second = result_of(run(workload, 0), f"{workload} untraced rerun")
        for name in QUALITY:
            if first["metrics"][name] != second["metrics"][name]:
                raise SystemExit(f"FAIL {workload}: {name} differs between "
                                 "two runs of one seed")

        stem = os.path.join(results_dir, f"{workload}-seed{SEED}")
        counters = []
        for _ in range(2):
            traced = result_of(run(workload, 1), f"{workload} traced")
            expect_metrics(traced, benchmark["per_layer"], workload)
            with open(stem + ".trace.json") as f:
                if not json.load(f)["traceEvents"]:
                    raise SystemExit(f"FAIL {workload}: empty trace file")
            with open(stem + ".counters.json") as f:
                counters.append(json.load(f))
        if counters[0] != counters[1]:
            raise SystemExit(f"FAIL {workload}: registry counts differ "
                             "between two traced runs of one seed")
        print(f"ok {workload}: cycle_s {first['metrics']['cycle_s']['value']:.4g}"
              f" s, gained_affinity "
              f"{first['metrics']['gained_affinity']['value']:.4f}")

    # Without the program's sources the benchmark must fail, print no result.
    bare = os.path.join(results_dir, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "cyclebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        ["python3", "cyclebench/run.py", "--workload", "m1-cold", "--seed",
         SEED, "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("FAIL: the benchmark ran without the sources")
    print("ok: fails without the program's sources")
    print("smoke test passed")


if __name__ == "__main__":
    main()
