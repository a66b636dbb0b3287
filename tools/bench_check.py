#!/usr/bin/env python3
"""Threshold gate over BENCH_results.json.

Validates the performance contracts the benchmarks exist to defend:

  fleet_tuning          >= 100 tenants tuned per interval, decisions
                        bit-identical across thread counts, and (only on
                        machines with >= 8 hardware threads) >= 3x
                        end-to-end speedup at 8 threads vs the serial
                        fleet loop.
  workload_compression  compression ratio >= 10x and interval-2
                        candidate-cluster reuse rate >= 0.6.
  executor_batch        vectorized batch engine >= 2x over the
                        row-at-a-time interpreter (single-thread
                        vectorization win; holds on 1-core boxes too).
  online_build          the online tuner's snapshot (a copy of the live
                        TPC-C database under the exclusive latch) is
                        flat in the data size: its hold at the largest
                        swept size is <= 2x the hold at the smallest.
  exploration           ordered deployment reaches 50% of the modeled
                        benefit >= 1.2x earlier than the single-
                        transaction apply, per-interval projected regret
                        stays within budget (top-1 admission excepted),
                        and zero quarantined indexes were ever applied.

Speedup gates that depend on parallel hardware condition on the
`run_meta.hardware_concurrency` every bench records (which is why that
metadata is mandatory): a single-core CI box cannot reproduce an 8-thread
speedup and must not fail for it. Every *present* section must carry
`run_meta`; a missing section is reported and skipped (its bench did not
run). Exit codes: 0 = all present gates hold, 1 = a gate failed,
77 = nothing to check (no results file or no gated section) — wired as
the ctest SKIP_RETURN_CODE.

Usage: bench_check.py [path/to/BENCH_results.json]
"""

import json
import sys

SKIP_EXIT = 77

failures = []
checked = []
skipped = []


def check(section, name, ok, detail):
    label = f"{section}.{name}"
    checked.append(label)
    if ok:
        print(f"PASS  {label}: {detail}")
    else:
        print(f"FAIL  {label}: {detail}")
        failures.append(label)


def require_run_meta(results, section):
    """Satellite contract: every bench section records uniform run
    metadata. Returns hardware_concurrency (0 when absent)."""
    meta = results[section].get("run_meta")
    ok = (
        isinstance(meta, dict)
        and isinstance(meta.get("hardware_concurrency"), int)
        and isinstance(meta.get("threads"), int)
        and isinstance(meta.get("timestamp_utc"), str)
    )
    check(section, "run_meta", ok,
          f"hardware_concurrency/threads/timestamp_utc present: {meta}")
    return meta.get("hardware_concurrency", 0) if isinstance(meta, dict) else 0


def gate_fleet(results):
    s = results["fleet_tuning"]
    hardware = require_run_meta(results, "fleet_tuning")
    tenants = s.get("tenants_per_interval", 0)
    check("fleet_tuning", "tenants_per_interval", tenants >= 100,
          f"{tenants} (floor 100)")
    identical = s.get("bit_identical_across_threads", False)
    check("fleet_tuning", "bit_identical_across_threads", identical is True,
          str(identical))
    speedup = s.get("speedup_at_8_threads", 0.0)
    if hardware >= 8:
        check("fleet_tuning", "speedup_at_8_threads", speedup >= 3.0,
              f"{speedup:.2f}x (floor 3.0x on {hardware} hardware threads)")
    else:
        skipped.append("fleet_tuning.speedup_at_8_threads")
        print(f"SKIP  fleet_tuning.speedup_at_8_threads: {speedup:.2f}x "
              f"unjudged on {hardware} hardware thread(s) — gate needs >= 8")


def gate_compression(results):
    s = results["workload_compression"]
    require_run_meta(results, "workload_compression")
    ratio = s.get("compression_ratio", 0.0)
    check("workload_compression", "compression_ratio", ratio >= 10.0,
          f"{ratio:.1f}x (floor 10x)")
    reuse = s.get("interval2_reuse_rate", 0.0)
    check("workload_compression", "interval2_reuse_rate", reuse >= 0.6,
          f"{reuse:.2f} (floor 0.6)")


def gate_executor(results):
    s = results["executor_batch"]
    require_run_meta(results, "executor_batch")
    speedup = s.get("batch_speedup", 0.0)
    check("executor_batch", "batch_speedup", speedup >= 2.0,
          f"{speedup:.2f}x (floor 2.0x)")


def gate_exploration(results):
    s = results["exploration"]
    require_run_meta(results, "exploration")
    speedup = s.get("time_to_half_benefit_speedup", 0.0)
    check("exploration", "time_to_half_benefit_speedup", speedup >= 1.2,
          f"{speedup:.2f}x (floor 1.2x — ordered deployment must reach "
          f"50% benefit measurably earlier than the single-transaction "
          f"apply)")
    bounded = s.get("regret_bounded", False)
    check("exploration", "regret_bounded", bounded is True,
          f"{bounded} (per-interval projected regret within budget, "
          f"top-1 admission excepted)")
    quarantined_applies = s.get("quarantined_applies", -1)
    check("exploration", "quarantined_applies", quarantined_applies == 0,
          f"{quarantined_applies} (a quarantined index must never be "
          f"applied)")


def gate_online_build(results):
    s = results["online_build"]
    require_run_meta(results, "online_build")
    rows = s.get("snapshot_rows", [])
    hold = s.get("snapshot_hold_seconds", [])
    ok = len(rows) >= 2 and len(rows) == len(hold) and hold[0] > 0
    ratio = hold[-1] / hold[0] if ok else float("inf")
    check("online_build", "snapshot_hold_flat", ok and ratio <= 2.0,
          f"hold {ratio:.2f}x from {rows[0] if rows else '?'} to "
          f"{rows[-1] if rows else '?'} rows (ceiling 2x: a snapshot "
          f"shares chunks and leaves instead of copying them)")


GATES = {
    "fleet_tuning": gate_fleet,
    "workload_compression": gate_compression,
    "executor_batch": gate_executor,
    "exploration": gate_exploration,
    "online_build": gate_online_build,
}


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_results.json"
    try:
        with open(path) as f:
            results = json.load(f)
    except FileNotFoundError:
        print(f"SKIP  no results file at {path} — run the benchmarks first")
        return SKIP_EXIT
    except json.JSONDecodeError as e:
        print(f"FAIL  {path} is not valid JSON: {e}")
        return 1

    for section, gate in GATES.items():
        if section in results:
            gate(results)
        else:
            skipped.append(section)
            print(f"SKIP  section '{section}' absent (bench not run)")

    if not checked:
        print("SKIP  no gated section present")
        return SKIP_EXIT
    print(f"\n{len(checked) - len(failures)}/{len(checked)} gates passed, "
          f"{len(skipped)} skipped")
    if failures:
        print("failed: " + ", ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
