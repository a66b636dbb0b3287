#!/usr/bin/env python3
"""AIM benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload tpch-validate --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The first run builds the library from
src/ and the benchmark program from perfbench/src/ into .bench_build/
(about two minutes on four cores); later runs reuse that build. The workload runs
in its own process (the aim_perfbench binary). Its result is checked
against BENCHMARK.json: every end-to-end metric (--trace 0) or every
per-layer metric (--trace 1) must be present, finite and in the declared
unit. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it carries run_meta, the output checks and the
deterministic counts. The exit code is non-zero when an output check
fails, the build fails, or the inputs are missing. --self-check runs
every workload twice at a small size and fails unless the deterministic
counts repeat exactly. See perfbench/README.md.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "aim_perfbench")
WORKLOADS = ("tpch-validate", "fleet-steady", "tpcc-online")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("AIM sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(workload, seed, seconds, trace, small=False):
    """Runs the workload's process; returns its JSON object."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if small:
        cmd.append("--small")
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result (exit %d)"
                           % (workload, proc.returncode))
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def check_metrics(result, trace):
    """Keeps exactly the declared metrics; returns (metrics, problems)."""
    metrics, problems = {}, []
    for m in declared_metrics(trace):
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
            continue
        value = got["value"]
        if value is None or not math.isfinite(value):
            problems.append("non-finite metric " + m["name"])
            continue
        if got["unit"] != m["unit"]:
            problems.append("unit of %s is %s, declared %s"
                            % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, problems


def self_check(seed):
    """Each workload twice at a small size: counts must repeat exactly."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            a = run_workload(workload, seed, 2, trace, small=True)
            b = run_workload(workload, seed, 2, trace, small=True)
            _, problems = check_metrics(a, trace)
            if not (a["correct"] and b["correct"]):
                problems.append("output checks failed: %s / %s"
                                % (a["checks"], b["checks"]))
            for key in sorted(set(a["counts"]) | set(b["counts"])):
                if a["counts"].get(key) != b["counts"].get(key):
                    problems.append("count %s differs: %r vs %r" % (
                        key, a["counts"].get(key), b["counts"].get(key)))
            status = "ok" if not problems else "FAILED"
            log("self-check %-14s trace=%d %s (%d counts)"
                % (workload, trace, status, len(a["counts"])))
            for p in problems:
                log("  " + p)
            ok = ok and not problems
    print(json.dumps({"self_check": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2
    if args.self_check:
        return self_check(args.seed)

    trace = args.trace == 1
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    metrics, problems = check_metrics(result, trace)
    for p in problems:
        log(p)
    for name, ok in sorted(result["checks"].items()):
        if not ok:
            log("output check failed: " + name)
    correct = (result["correct"] and result["exit_code"] == 0
               and not problems)
    print(json.dumps({k: result[k] for k in
                      ("workload", "seed", "trace", "run_meta", "checks",
                       "counts", "info")}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
