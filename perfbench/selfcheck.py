#!/usr/bin/env python3
"""Self-check of the benchmark: every workload at tiny scale, both modes.

Asserts that the result line has the contract's keys, that the untraced
run emits exactly the end_to_end metrics of BENCHMARK.json and the traced
run exactly the per_layer metrics, each with its declared unit, and that
nothing failed (attempted > 0, failed == 0, failed_frac == 0).

  python3 perfbench/selfcheck.py          # from the repository root
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, declared, label):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        errors.append(f"failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errors.append(f"missing {sorted(set(want) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if name in want and m.get("unit") != want[name]:
            errors.append(f"{name}: unit {m.get('unit')} != {want[name]}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{name}: value {v!r}")
    if "failed_frac" in metrics and metrics["failed_frac"]["value"] != 0:
        errors.append(f"failed_frac {metrics['failed_frac']['value']}")
    for e in errors:
        print(f"FAIL {label}: {e}")
    return not errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{name} trace={trace}"
            good = check(run(name, trace), declared, label)
            print(f"{'ok  ' if good else 'FAIL'} {label}")
            ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
