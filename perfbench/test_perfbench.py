"""Tests of the benchmark's own machinery: spans, tails, names, seeds, oracles."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import hostspeed, layers, run, stats, workloads
from perfbench.run import END_TO_END_UNITS, WORKLOAD_NAMES
from perfbench.tracer import Instrumentation, Probe, Tracer
from perfbench.workloads import (
    WORKLOADS,
    CampaignWorkload,
    FabricWorkload,
    OpClock,
    derive_entropy,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.begin("outer")
    clock.now = 1.0
    tracer.begin("middle")
    clock.now = 2.0
    tracer.begin("leaf")
    clock.now = 5.0
    tracer.end()  # leaf: 3 s
    clock.now = 6.0
    tracer.end()  # middle: 5 s, 2 of them its own
    clock.now = 10.0
    tracer.end()  # outer: 10 s, 5 of them its own
    assert tracer.layers["leaf"].self_s == 3.0
    assert tracer.layers["middle"].self_s == 2.0
    assert tracer.layers["middle"].inclusive_s == 5.0
    assert tracer.layers["outer"].self_s == 5.0
    assert tracer.layers["outer"].inclusive_s == 10.0
    # Self times partition the outermost span.
    assert tracer.total_self_s() == 10.0


def test_reentered_layer_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.begin("a")
    clock.now = 2.0
    tracer.begin("a")
    clock.now = 5.0
    tracer.end()
    clock.now = 10.0
    tracer.end()
    stats_a = tracer.layers["a"]
    assert stats_a.calls == 2
    assert stats_a.inclusive_s == 10.0
    assert stats_a.self_s == 10.0
    assert stats_a.durations == [3.0, 10.0]


class Toy:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        if value < 0:
            raise ValueError("negative")
        return value * 2


def test_instrumentation_wraps_observes_and_restores():
    original_outer = Toy.__dict__["outer"]
    tracer = Tracer()
    probes = [
        Probe(Toy, "outer", "toy.outer", lambda t, result: t.count("toy.outer", "sum", result)),
        Probe(Toy, "inner", "toy.inner"),
    ]
    with Instrumentation(tracer, probes):
        assert Toy().outer(3) == 7
        with pytest.raises(ValueError):
            Toy().outer(-1)
    assert Toy.__dict__["outer"] is original_outer
    assert tracer.layers["toy.outer"].calls == 2
    assert tracer.layers["toy.inner"].calls == 2
    assert tracer.layers["toy.outer"].counts["sum"] == 7
    # A raising call still closes its spans.
    assert tracer._stack == []
    assert Toy().outer(1) == 3
    assert tracer.layers["toy.outer"].calls == 2


def test_tail_percentile_needs_ten_samples_beyond():
    samples = [float(value) for value in range(1, 101)]
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.tail_percentile(samples, 0.9) == 90.0
    assert stats.nearest_rank(samples, 0.5) == 50.0
    with pytest.raises(ValueError):
        stats.tail_percentile(samples[:99], 0.9)
    assert stats.samples_beyond(19, 0.5) == 9
    with pytest.raises(ValueError):
        stats.tail_percentile(samples[:19], 0.5)


def test_median_of_parts_takes_each_parts_median():
    assert stats.median_of_parts([[1.0, 9.0, 2.0], [5.0, 4.0, 6.0]]) == 2.0 + 5.0


def test_names_agree_with_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    assert end_to_end == END_TO_END_UNITS
    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)
    assert per_layer == dict(layers.PER_LAYER_METRICS)
    for name in list(end_to_end) + list(per_layer):
        assert stats.check_metric_name(name) == name
    for bad in ("", "has space", "slash/name", "x" * 65, ".leading"):
        with pytest.raises(ValueError):
            stats.check_metric_name(bad)


def test_entropy_depends_on_workload_seed_and_index():
    assert derive_entropy("campaign", 1, 0) == derive_entropy("campaign", 1, 0)
    distinct = {
        derive_entropy("campaign", 1, 0),
        derive_entropy("campaign", 2, 0),
        derive_entropy("campaign", 1, 1),
        derive_entropy("xiangshan", 1, 0),
    }
    assert len(distinct) == 4
    assert all(0 <= value < 2**31 for value in distinct)


def test_same_seed_same_digest_and_tracing_is_transparent():
    workload = CampaignWorkload("campaign", core="boom", campaigns=1, iterations=3)
    first = workload.run_unit(seed=1)
    assert first.failed == 0 and first.attempted == 3
    # Ops of two iterations: the last op of a campaign holds what is left.
    paired = CampaignWorkload("campaign", core="boom", campaigns=1, iterations=3,
                              iterations_per_op=2).run_unit(seed=1)
    assert paired.failed == 0 and paired.attempted == 2
    assert paired.digest == first.digest
    assert workload.run_unit(seed=1).digest == first.digest
    assert workload.run_unit(seed=2).digest != first.digest
    tracer = Tracer()
    untraced, traced = workload.run_pair(seed=1, tracer=tracer)
    assert untraced.digest == traced.digest == first.digest
    values = layers.layer_metrics(tracer, units=1, wall_s=traced.wall_s, overhead=0.0)
    assert set(values) == {name for name, _ in layers.PER_LAYER_METRICS}
    assert values["uarch.calls"] > 0 and values["core.engine.merges"] == 1
    assert values["trace.self_share_sum"] <= 1.0


def test_fabric_matches_the_in_process_reference():
    workload = FabricWorkload(slices=2, epochs=2, iterations=4)
    unit = workload.run_unit(seed=3)
    assert unit.failed == 0 and unit.attempted == 4
    assert unit.digest == workload.reference_digest(seed=3)


def test_op_clock_scales_by_the_yardstick_and_leaves_it_out(monkeypatch):
    def slow_host_yardstick():
        time.sleep(0.2)
        return 2 * hostspeed.YARDSTICK_S  # the host runs at half the reference speed

    monkeypatch.setattr(workloads, "yardstick", slow_host_yardstick)
    clock = OpClock()
    clock.start_op()
    time.sleep(0.01)
    clock.end_op()
    wall, reference_wall = clock.finish()
    (op,) = clock.ops
    assert 0.005 <= op < 0.1
    assert 0.01 <= wall < 0.15  # the 0.2 s yardstick is not part of the wall
    assert reference_wall == pytest.approx(wall / 2)
    assert hostspeed.reference_seconds(3.0, hostspeed.YARDSTICK_S / 2) == 6.0


def _last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _raise_on_call(monkeypatch, cls, name, call_number):
    original = getattr(cls, name)
    calls = []

    def flaky(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == call_number:
            raise RuntimeError("injected failure")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, flaky)


def test_a_raising_fabric_task_is_reported_as_a_failed_op(monkeypatch, capsys):
    _raise_on_call(monkeypatch, workloads.InlineBackend, "run_epoch", 2)
    monkeypatch.setattr(run, "setup_seconds", lambda name, seed: 0.5)
    run.run_untraced(FabricWorkload(slices=2, epochs=2, iterations=4), seed=3, seconds=0.1)
    result = _last_json_line(capsys)
    assert result["correct"] is False
    assert result["failed"] > 0 and result["attempted"] >= result["failed"]
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert result["metrics"]["op_success_ratio"]["value"] < 1.0


def test_a_raising_campaign_op_is_reported_as_a_failed_op(monkeypatch, capsys):
    # One repeat loses an op, so the repeats' op lists no longer line up.
    _raise_on_call(monkeypatch, workloads.ShardCampaignRunner, "advance", 5)
    monkeypatch.setattr(run, "setup_seconds", lambda name, seed: 0.5)
    workload = CampaignWorkload("campaign", core="boom", campaigns=2, iterations=3)
    run.run_untraced(workload, seed=1, seconds=0.1)
    result = _last_json_line(capsys)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert set(result["metrics"]) == set(END_TO_END_UNITS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
