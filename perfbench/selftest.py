#!/usr/bin/env python3
"""Self-test of the traced run.

Runs `run.py --trace 1` twice per workload and requires:
  - both runs correct (outputs match the CLI references);
  - every per-layer count identical across the two runs (and, inside
    run.py, across the passes of each run);
  - in every pass, the layer spans of each half plus its `other` remainder
    add up to the half's traced total, with `other` non-negative and at
    most MAX_OTHER of the total.
It prints the tracing overhead, the traced analysis total against the
untraced `analyze_s` median.

    python3 perfbench/selftest.py [--workload NAME] [--seconds S]

Run it from the root of a source checkout. Exit code 0 means every check
passed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

MAX_OTHER = 0.25


def traced_run(workload, seconds):
    out = subprocess.run(
        [sys.executable, str(Path(bench.__file__)), "--workload", workload,
         "--seed", "2020", "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    record = json.loads(
        (bench.WORK_DIR / "results" / f"{workload}-seed2020-trace1.json")
        .read_text())
    return result, record["samples"]


def check_workload(workload, seconds):
    errors = []
    runs = [traced_run(workload, seconds) for _ in range(2)]
    for i, (result, _) in enumerate(runs):
        if not result["correct"]:
            errors.append(f"run {i + 1} is not correct: {result}")
    counts = [{k: m["value"] for k, m in result["metrics"].items()
               if k in bench.LAYER_COUNTS} for result, _ in runs]
    for name in bench.LAYER_COUNTS:
        if counts[0].get(name) != counts[1].get(name):
            errors.append(f"{name}: {counts[0].get(name)} vs "
                          f"{counts[1].get(name)}")
    for _, passes in runs:
        for spans in passes:
            for half, names in bench.SPANS.items():
                total = spans[f"traced.{half}_total_ms"]
                other = spans[f"traced.{half}_other_ms"]
                covered = sum(spans[name] for name in names)
                if abs(covered + other - total) > 1e-6 * total:
                    errors.append(f"{half}: spans {covered:.3f} + other "
                                  f"{other:.3f} != total {total:.3f} ms")
                if not 0 <= other <= MAX_OTHER * total:
                    errors.append(f"{half}: other {other:.1f} ms of "
                                  f"{total:.1f} ms is outside [0, {MAX_OTHER}]")
    metrics = runs[0][0]["metrics"]
    print(f"{workload}: {len(runs[0][1]) + len(runs[1][1])} passes, "
          f"analyze traced {metrics['traced.analyze_total_ms']['value']:.1f} ms, "
          f"traced/untraced analyze_s = "
          f"{metrics['traced.analyze_vs_cli']['value']:.3f}")
    for error in errors:
        print(f"  FAIL {error}")
    return not errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    workloads = [args.workload] if args.workload else list(bench.WORKLOADS)
    ok = all([check_workload(w, args.seconds) for w in workloads])
    print("selftest:", "ok" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
