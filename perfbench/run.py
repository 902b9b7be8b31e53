"""Layered campaign benchmark of the DejaVuzz reproduction.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs untraced and traced units of the same workload side by
side and reports the per-layer metrics (see ``perfbench/layers.py``).  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a line before it
prints the SHA-256 digest of the workload's deterministic result.

Host times are reported in reference seconds (``perfbench/hostspeed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("campaign", "xiangshan", "fabric")
# Set-up is measured this many times, each in a fresh interpreter, and the
# median reported: one import is too short to average out host-speed drift.
SETUP_REPEATS = 21
# Yardstick runs that scale one set-up sample.
SETUP_YARDSTICKS = 9

END_TO_END_UNITS = {
    "iters_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "coverage_points": "count",
    "windows_triggered": "count",
    "op_success_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload_name: str, seed: int) -> float:
    """Reference seconds from before importing the program to the first op's readiness.

    Called in a fresh interpreter; spawns no process itself.
    """
    started = time.perf_counter()
    sys.path[:0] = [ROOT, SRC]
    from perfbench import workloads

    workloads.WORKLOADS[workload_name]().setup(seed)
    elapsed = time.perf_counter() - started
    from perfbench.hostspeed import reference_seconds, yardstick

    speed = statistics.median(yardstick() for _ in range(SETUP_YARDSTICKS))
    return reference_seconds(elapsed, speed)


def setup_seconds(workload_name: str, seed: int) -> float:
    code = (
        "import sys; from perfbench.run import measure_setup; "
        "print(measure_setup(sys.argv[1], int(sys.argv[2])))"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        completed = subprocess.run(
            [sys.executable, "-c", code, workload_name, str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            check=True,
            text=True,
            timeout=120,
        )
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def keep_going(started: float, units: list, seconds: float, min_units: int) -> bool:
    """Run another unit while at least half of it is expected to fit in ``seconds``."""
    if len(units) < min_units:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / len(units) <= seconds


def emit(correct, attempted, failed, metrics, units):
    from perfbench.stats import check_metric_name

    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            check_metric_name(name): {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(payload), flush=True)


def check_digests(units, expected):
    """Fail every op of a unit whose digest differs from ``expected``."""
    correct = True
    for unit in units:
        if unit.digest != expected or unit.digest == "error":
            unit.fail_all()
            correct = False
    return correct


def expected_digest(workload, seed, units):
    """The oracle: fabric must equal its in-process run; a repeat, itself."""
    from perfbench import workloads

    if not isinstance(workload, workloads.FabricWorkload):
        return units[0].digest
    try:
        return workload.reference_digest(seed)
    except Exception:
        workloads.report_exception("fabric in-process reference")
        return "error"


def part_walls(units):
    return [list(repeats) for repeats in zip(*(unit.part_walls for unit in units))]


def run_untraced(workload, seed, seconds):
    from perfbench import stats, workloads

    units = []
    started = time.perf_counter()
    while keep_going(started, units, seconds, workload.min_units):
        units.append(workload.run_unit(seed))
    # Read before the in-process reference run can raise the high-water mark.
    peak_rss = workloads.peak_rss_mb(
        include_children=isinstance(workload, workloads.FabricWorkload)
    )
    expected = expected_digest(workload, seed, units)
    correct = check_digests(units, expected)
    print(f"digest workload={workload.name} seed={seed} sha256={expected}", flush=True)
    # After the peak RSS read: the set-up interpreters are children too.
    setup_s = setup_seconds(workload.name, seed)

    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    if failed == 0:
        # Every repeat of a unit runs the same op sequence; each op's time is
        # its median over the repeats, which damps a burst of the host that
        # hit one repeat.
        op_seconds = [
            statistics.median(repeats) for repeats in zip(*(u.op_seconds for u in units))
        ]
        op_p50_ms = stats.nearest_rank(op_seconds, 0.5) * 1000.0
        op_p90_ms = stats.tail_percentile(op_seconds, 0.9) * 1000.0
    else:
        # A failed op leaves the repeats' op lists out of step and the tail
        # short; the run reports the failure, not a timing.
        op_seconds = []
        op_p50_ms = op_p90_ms = 0.0
    print(
        f"units={len(units)} ops_per_unit={len(op_seconds)} "
        f"beyond_p90={stats.samples_beyond(len(op_seconds), 0.9)}",
        flush=True,
    )
    walls = stats.median_of_parts(part_walls(units))
    metrics = {
        "iters_per_s": units[0].iterations / walls if walls else 0.0,
        "op_p50_ms": op_p50_ms,
        "op_p90_ms": op_p90_ms,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "coverage_points": units[0].coverage_points,
        "windows_triggered": units[0].windows_triggered,
        "op_success_ratio": 1.0 - failed / attempted,
    }
    emit(correct and failed == 0, attempted, failed, metrics, END_TO_END_UNITS)


def run_traced(workload, seed, seconds):
    from perfbench import layers, stats
    from perfbench.tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    started = time.perf_counter()
    while keep_going(started, traced, seconds, 1):
        plain, instrumented = workload.run_pair(seed, tracer)
        untraced.append(plain)
        traced.append(instrumented)
    expected = expected_digest(workload, seed, untraced)
    correct = check_digests(untraced + traced, expected)
    print(f"digest workload={workload.name} seed={seed} sha256={expected}", flush=True)

    overhead = (
        stats.median_of_parts(part_walls(traced)) / stats.median_of_parts(part_walls(untraced))
        - 1.0
    )
    values = layers.layer_metrics(
        tracer, units=len(traced), wall_s=sum(unit.wall_s for unit in traced), overhead=overhead
    )
    # Self times nest, so their shares can never add up to more than the wall.
    correct = correct and values["trace.self_share_sum"] <= 1.0 + 1e-9
    for name, unit in layers.PER_LAYER_METRICS:
        print(f"  {name:34s} {values[name]:>14.6g} {unit}", file=sys.stderr)
    attempted = sum(unit.attempted for unit in untraced + traced)
    failed = sum(unit.failed for unit in untraced + traced)
    emit(correct and failed == 0, attempted, failed, values, dict(layers.PER_LAYER_METRICS))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    # The yardstick must run on the CPU its op ran on, and so must the
    # simulator servers of fabric, which inherit this affinity.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    sys.path[:0] = [ROOT, SRC]
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        run_traced(workload, args.seed, args.seconds)
    else:
        run_untraced(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
