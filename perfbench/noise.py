"""Noise study: run workloads repeatedly, interleaved, and report each metric's spread.

    python3 perfbench/noise.py --runs 10 --seconds 30 --workloads campaign,xiangshan,fabric

Run ``i`` of every workload uses seed ``--first-seed + i``, and the workloads
take turns, so slow drift of the host spreads over all of them alike.  For
each metric the spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--json PATH`` the raw values are written out as well.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [
            sys.executable, RUN_PY,
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        stdout=subprocess.PIPE,
        check=True,
        text=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return median, (third - first) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", default="campaign,xiangshan,fabric")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="write the raw values here")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    values = {workload: {} for workload in workloads}
    all_correct = True
    for index in range(args.runs):
        for workload in workloads:
            result = run_once(workload, args.first_seed + index, args.seconds)
            all_correct &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {index + 1}/{args.runs} {workload} correct={result['correct']}",
                  file=sys.stderr, flush=True)

    for workload in workloads:
        print(f"{workload}:")
        for name, series in values[workload].items():
            if len(series) < 2:
                continue
            median, relative = spread(series)
            print(f"  {name:34s} median {median:>12.6g}  IQR/median {relative:7.2%}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(values, handle, indent=1, sort_keys=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
