#!/usr/bin/env python3
"""Control-loop cycle benchmark: build, run one workload, report metrics.

    python3 cyclebench/run.py --workload m1-cold --seed 1 --seconds 20 --trace 0

Builds `cycle_bench` from the repository's sources (CMake, into
$CARGO_TARGET_DIR or `.bench_build` at the repository root), runs the
workload in its own process, and prints the benchmark's result as the last
stdout line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics: counts come from `cycle_bench`, span timings are computed here
from the Perfetto trace file it writes (self time = span duration minus the
part of it covered by child spans).

--factor F overrides the workload's Table II scale divisor (the smoke test
uses it); benchmark runs never pass it.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"cyclebench: {message}", file=sys.stderr)
    sys.exit(1)


def run_to_end(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (a build's compilers too) and waits for it. Returns (code, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    return proc.returncode, out


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds cycle_bench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to the benchmark; it builds the program from source")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "cycle_bench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            code, _ = run_to_end(step, BUILD_TIMEOUT_S, stdout=log,
                                 stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "cycle_bench")


def self_time(event, children):
    """Duration minus the union of child intervals clipped to the span."""
    start, end = event["ts"], event["ts"] + event["dur"]
    covered, cursor = 0.0, start
    for child in sorted(children, key=lambda c: c["ts"]):
        lo = max(child["ts"], cursor)
        hi = min(child["ts"] + child["dur"], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return event["dur"] - covered


def median(values):
    return sorted(values)[len(values) // 2] if values else 0.0


def span_metrics(trace_path, threads):
    """Per-layer span metrics (seconds) from a Chrome trace-event file."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    for e in events:
        e["ts"] *= 1e-6
        e["dur"] *= 1e-6
    by_id = {e["args"]["id"]: e for e in events}
    children = defaultdict(list)
    for e in events:
        if e["args"]["parent"] in by_id:
            children[e["args"]["parent"]].append(e)

    def subtree(root):
        stack, out = [root], []
        while stack:
            e = stack.pop()
            out.append(e)
            stack.extend(children[e["args"]["id"]])
        return out

    def durations(name):
        return [e["dur"] for e in events if e["name"] == name]

    cycles = [e for e in events if e["name"] == "bench.cycle"]
    if not cycles:
        fail(f"{trace_path} holds no bench.cycle spans")
    totals = defaultdict(float)
    self_by_name = defaultdict(float)
    critical_path = 0.0
    for cycle in cycles:
        slowest = 0.0
        for e in subtree(cycle):
            name = e["name"]
            if name.startswith("subproblem_"):
                name = "subproblem"
                slowest = max(slowest, e["dur"])
            totals[name] += e["dur"]
            self_by_name[name] += self_time(e, children[e["args"]["id"]])
        critical_path += slowest
    n = len(cycles)
    batches = durations("migration_batch")
    wall_threads = totals["solve"] * threads

    print(f"self time per cycle over {n} traced cycles (s):")
    for name in sorted(self_by_name, key=lambda k: -self_by_name[k]):
        print(f"  {name:<20} total {totals[name] / n:10.6f}  "
              f"self {self_by_name[name] / n:10.6f}")

    return {
        "cluster.generate_s": median(durations("bench.generate")),
        "cluster.first_fit_s": median(durations("bench.first_fit")),
        "sim.collect_s": totals["bench.collect"] / n,
        "optimize.s": totals["bench.optimize"] / n,
        "optimize.self_s": self_by_name["optimize"] / n,
        "merge.s": (totals["merge"] + totals["fallback"]) / n,
        "partition.s": totals["partition"] / n,
        "select.s": totals["select"] / n,
        "solve.wall_s": totals["solve"] / n,
        "solve.sum_s": totals["subproblem"] / n,
        "solve.critical_path_s": critical_path / n,
        "solve.parallel_eff": (totals["subproblem"] / wall_threads
                               if wall_threads > 0 else 0.0),
        "plan.s": totals["migration_path"] / n,
        "validate.s": totals["bench.validate"] / n,
        "execute.s": totals["bench.execute"] / n,
        "execute.batch_s": sum(batches) / len(batches) if batches else 0.0,
        "delta.rebase_s": totals["bench.rebase"] / n,
        "audit.s": totals["bench.audit"] / n,
        "cycle.unattributed_s": self_by_name["bench.cycle"] / n,
    }


SPAN_UNITS = {"cluster.generate_s": "s", "cluster.first_fit_s": "s",
              "solve.parallel_eff": "fraction",
              "execute.batch_s": "s/batch"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--factor", type=float, default=0.0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", results]
    if args.factor > 0:
        cmd += ["--factor", str(args.factor)]
    code, stdout = run_to_end(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    if code is None:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(stdout)
        fail(f"cycle_bench exited {code} without a result")
    print("\n".join(lines[:-1]))

    if args.trace:
        metrics = result["metrics"]
        threads = metrics.pop("pool.threads")["value"]
        trace_path = os.path.join(
            results, f"{args.workload}-seed{args.seed}.trace.json")
        for name, value in span_metrics(trace_path, threads).items():
            unit = SPAN_UNITS.get(name, "s/cycle")
            metrics[name] = {"value": value, "unit": unit}
        result["metrics"] = dict(sorted(metrics.items()))
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
