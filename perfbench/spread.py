#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sms_train_stem,topics_evaluate_tfidf \
        --seeds 1-10 --seconds 15 [--trace 1] [--out spread.json]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median. Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the runs and spreads here as JSON")
    args = parser.parse_args()
    report = {}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            started = time.perf_counter()
            res = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.perf_counter() - started
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {res.returncode}\n{res.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{res.stdout[-2000:]}")
                status = 1
            runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        if not runs:
            continue
        spreads = {}
        longest = max(r["elapsed_s"] for r in runs)
        print(f"{workload} ({len(runs)} runs, longest {longest:.1f} s)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            share = (q3 - q1) / median if median else float("nan")
            spreads[name] = {"median": median, "q1": q1, "q3": q3, "iqr_share": share,
                             "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {name:<28}{median:>14.6g} {spreads[name]['unit']:<7} iqr/median {share:.4f}")
        report[workload] = {"runs": runs, "spreads": spreads}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
