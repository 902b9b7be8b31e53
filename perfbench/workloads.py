"""The benchmark's workloads: what one timed *unit* runs, and how it is checked.

Every workload derives its inputs (root entropies) from the ``--seed`` with
SHA-256 in this file, never with the program's own rng, so a change to the
program cannot change what the benchmark feeds it.  A unit is deterministic
for a given seed: repeating it repeats the same simulated work, which is what
lets a run take medians over repeated units to beat host-speed drift.

* ``campaign`` / ``xiangshan`` — a unit is ``campaigns`` independent
  single-slice, single-epoch engine campaigns (inline, in-process), each of
  ``iterations`` iterations.  An op is ``iterations_per_op`` consecutive
  campaign iterations, cut where the fuzzer yields a step with
  ``end_of_iteration``: one on ``campaign``, two on ``xiangshan``, whose
  iteration times spread so evenly over 20-40 ms that the median of
  one-iteration ops moved 19% between seeds (``noise.md``).
* ``fabric`` — a unit is one 16-slice engine campaign over several sync
  epochs on the inline backend with ``simulator="subprocess"``.  An op is one
  slice-epoch task (``InlineBackend.run_epoch`` on a single task).

Op and part times are kept in reference seconds (``hostspeed.py``): an
:class:`OpClock` runs the yardstick after every op and leaves its time out.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.backends import InlineBackend, ShardCampaignRunner
from repro.core.engine import (
    CampaignScheduler,
    EngineConfiguration,
    EngineResult,
    ParallelCampaignEngine,
    resolve_core,
)
from repro.core.fuzzer import FuzzerConfiguration
from repro.sim.client import close_default_pool

from perfbench.hostspeed import reference_seconds, yardstick
from perfbench.layers import PROBES
from perfbench.tracer import Instrumentation, Tracer


def derive_entropy(workload: str, seed: int, index: int) -> int:
    """A 31-bit root entropy for input ``index`` of ``workload`` at ``seed``."""
    digest = hashlib.sha256(f"perfbench/{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFF_FFFF


def result_digest(campaigns: List[Dict[str, object]]) -> str:
    """SHA-256 of deterministic campaign wire forms (``include_timing=False``)."""
    canonical = json.dumps(campaigns, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def windows_triggered(result: EngineResult) -> int:
    return sum(result.campaign.triggered_windows.values())


class OpClock:
    """Times ops and their part in reference seconds, a yardstick after each op."""

    def __init__(self) -> None:
        self.started = self.mark = time.perf_counter()
        self.ops: List[float] = []
        self.yardsticks: List[float] = []
        self.op_raw_s = 0.0
        self.yardstick_wall_s = 0.0

    def start_op(self) -> None:
        self.mark = time.perf_counter()

    def end_op(self) -> None:
        """Close the op started last; the next one starts when this returns."""
        now = time.perf_counter()
        raw = now - self.mark
        speed = yardstick()
        self.ops.append(reference_seconds(raw, speed))
        self.yardsticks.append(speed)
        self.op_raw_s += raw
        self.mark = time.perf_counter()
        self.yardstick_wall_s += self.mark - now

    def finish(self):
        """``(wall, reference wall)`` of the part; neither counts the yardsticks.

        Time outside ops (set-up, merge) is scaled by the part's median yardstick.
        """
        wall = time.perf_counter() - self.started - self.yardstick_wall_s
        speed = statistics.median(self.yardsticks) if self.yardsticks else yardstick()
        return wall, sum(self.ops) + reference_seconds(wall - self.op_raw_s, speed)


@dataclass
class UnitResult:
    """What one unit measured and produced.

    ``wall_s`` is host seconds (what the traced run's spans are shares of);
    ``part_walls`` and ``op_seconds`` are reference seconds.
    """

    wall_s: float = 0.0
    part_walls: List[float] = field(default_factory=list)
    op_seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    coverage_points: int = 0
    windows_triggered: int = 0
    iterations: int = 0

    def fail_all(self) -> None:
        """A wrong result makes every op of the unit a failed op."""
        self.failed = self.attempted


def report_exception(context: str) -> None:
    print(f"[perfbench] {context} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class CampaignWorkload:
    """Single-slice in-process campaigns on one core."""

    # A run repeats its unit at least twice: each repeat must reproduce the
    # digest, and per-campaign and per-op times are medians over repeats.
    min_units = 2

    def __init__(
        self,
        name: str,
        core: str,
        campaigns: int = 12,
        iterations: int = 20,
        iterations_per_op: int = 1,
    ):
        self.name = name
        self.core = core
        self.campaigns = campaigns
        self.iterations = iterations
        self.iterations_per_op = iterations_per_op

    @property
    def ops_per_campaign(self) -> int:
        return -(-self.iterations // self.iterations_per_op)

    def entropies(self, seed: int) -> List[int]:
        return [derive_entropy(self.name, seed, index) for index in range(self.campaigns)]

    def _start(self, entropy: int):
        configuration = EngineConfiguration(
            fuzzer=FuzzerConfiguration(core=resolve_core(self.core), entropy=entropy),
            shards=1,
            slices=1,
            iterations=self.iterations,
            sync_epochs=1,
            executor="inline",
        )
        scheduler = CampaignScheduler(configuration)
        scheduler.begin_run()
        (task,) = scheduler.next_tasks()
        return scheduler, ShardCampaignRunner(task)

    def setup(self, seed: int) -> None:
        """Everything the first timed op waits for."""
        self._start(self.entropies(seed)[0])

    def run_unit(self, seed: int, tracer: Optional[Tracer] = None) -> UnitResult:
        unit = _CampaignUnit()
        for entropy in self.entropies(seed):
            self._run_campaign(entropy, unit, tracer)
        return unit.finish()

    def run_pair(self, seed: int, tracer: Tracer):
        """``(untraced, traced)`` units, each campaign run untraced then traced.

        Back-to-back campaigns see the same host speed, so the ratio of the
        two units' walls measures the tracer's overhead, not host drift.
        """
        untraced, traced = _CampaignUnit(), _CampaignUnit()
        for entropy in self.entropies(seed):
            self._run_campaign(entropy, untraced, None)
            with Instrumentation(tracer, PROBES):
                self._run_campaign(entropy, traced, tracer)
        return untraced.finish(), traced.finish()

    def _run_campaign(
        self, entropy: int, unit: "_CampaignUnit", tracer: Optional[Tracer]
    ) -> None:
        clock = OpClock()
        try:
            scheduler, runner = self._start(entropy)
            clock.start_op()
            iterations = 0
            while (step := runner.advance()) is not None:
                if step.end_of_iteration:
                    iterations += 1
                    if iterations % self.iterations_per_op == 0:
                        clock.end_op()
            if iterations % self.iterations_per_op:
                clock.end_op()
            if not runner.payload or "result" not in runner.payload:
                raise RuntimeError("slice task finished without a result payload")
            scheduler.complete_epoch([runner.payload])
            result = scheduler.end_run()
        except Exception:
            report_exception(f"{self.name} campaign entropy={entropy}")
            unit.raised += 1  # the op in flight failed
            unit.broken = True
            return
        finally:
            wall, reference_wall = clock.finish()
            unit.wall_s += wall
            unit.part_walls.append(reference_wall)
            unit.op_seconds.extend(clock.ops)
        if len(clock.ops) != self.ops_per_campaign:
            unit.broken = True
        unit.campaigns.append(result.campaign.to_dict(include_timing=False))
        unit.coverage_points += result.total_coverage()
        unit.windows_triggered += windows_triggered(result)
        unit.iterations += result.campaign.iterations_run
        if tracer is not None:
            record_fuzzer_stats(tracer, runner.fuzzer)


@dataclass
class _CampaignUnit(UnitResult):
    """A campaign unit under construction."""

    campaigns: List[Dict[str, object]] = field(default_factory=list)
    raised: int = 0
    broken: bool = False

    def finish(self) -> UnitResult:
        self.attempted = len(self.op_seconds) + self.raised
        self.failed = self.raised
        self.digest = "error" if self.broken else result_digest(self.campaigns)
        if self.broken:
            self.fail_all()
        return self


def record_fuzzer_stats(tracer: Tracer, fuzzer) -> None:
    """Fold a finished fuzzer's cache and DUT-pool tallies into the tracer."""
    phase1 = fuzzer.phase1
    if phase1.simulation_cache is not None:
        stats = phase1.simulation_cache.stats()
        tracer.count("core.phase1", "sim_cache_hits", stats["hits"])
        tracer.count("core.phase1", "sim_cache_lookups", stats["hits"] + stats["misses"])
    if phase1.dut_pool is not None:
        stats = phase1.dut_pool.stats()
        tracer.count("core.phase1", "dut_reuses", stats["reuses"])
        tracer.count("core.phase1", "dut_checkouts", stats["reuses"] + stats["constructions"])
    stats = phase1.trigger_generator.assembly_cache.stats()
    tracer.count("isa.assemble", "cache_hits", stats["hits"])
    tracer.count("isa.assemble", "cache_lookups", stats["hits"] + stats["misses"])


class FabricWorkload:
    """A 16-slice campaign whose simulations run on subprocess servers."""

    name = "fabric"
    min_units = 1

    def __init__(self, slices: int = 16, epochs: int = 7, iterations: int = 224):
        self.slices = slices
        self.epochs = epochs
        self.iterations = iterations

    def configuration(self, seed: int) -> EngineConfiguration:
        return EngineConfiguration(
            fuzzer=FuzzerConfiguration(
                core=resolve_core("boom"), entropy=derive_entropy(self.name, seed, 0)
            ),
            shards=1,
            slices=self.slices,
            iterations=self.iterations,
            sync_epochs=self.epochs,
            executor="inline",
            simulator="subprocess",
        )

    def _start(self, seed: int) -> CampaignScheduler:
        scheduler = CampaignScheduler(self.configuration(seed))
        scheduler.begin_run()
        return scheduler

    def setup(self, seed: int) -> None:
        """Everything the first timed op waits for; spawns no process."""
        self._start(seed).next_tasks()

    def run_unit(self, seed: int, tracer: Optional[Tracer] = None) -> UnitResult:
        unit = UnitResult()
        backend = InlineBackend()
        clock = OpClock()
        broken = False
        result = None
        try:
            scheduler = self._start(seed)
            while not scheduler.finished:
                payloads = []
                for task in scheduler.next_tasks():
                    unit.attempted += 1
                    clock.start_op()
                    try:
                        (payload,) = backend.run_epoch([task])
                    except Exception:
                        report_exception(f"fabric task slice={task.slice_index}")
                        unit.failed += 1
                        broken = True
                        continue
                    clock.end_op()
                    if "result" not in payload:
                        unit.failed += 1
                        broken = True
                        continue
                    payloads.append(payload)
                    if tracer is not None:
                        row = payload.get("sim_stats") or {}
                        tracer.count("sim", "spawns", row.get("spawns", 0))
                        tracer.count("sim", "restarts", row.get("restarts", 0))
                if broken:
                    break
                scheduler.complete_epoch(payloads)
            if not broken:
                result = scheduler.end_run()
        finally:
            unit.wall_s, reference_wall = clock.finish()
            unit.part_walls = [reference_wall]
            unit.op_seconds = clock.ops
            backend.close()
            # Quit and reap every server so none outlives the unit and their
            # resource usage is visible to RUSAGE_CHILDREN.
            close_default_pool()
        if result is None:
            unit.digest = "error"
            unit.fail_all()
            return unit
        unit.digest = result_digest([result.campaign.to_dict(include_timing=False)])
        unit.coverage_points = result.total_coverage()
        unit.windows_triggered = windows_triggered(result)
        unit.iterations = result.campaign.iterations_run
        if tracer is not None:
            tracer.count(
                "core.engine", "transfers", result.redistributed_seeds + result.transferred_seeds
            )
        return unit

    def run_pair(self, seed: int, tracer: Tracer):
        """``(untraced, traced)`` units; the traced one also charges server CPU."""
        untraced = self.run_unit(seed)
        cpu_before = children_cpu_s()
        with Instrumentation(tracer, PROBES):
            traced = self.run_unit(seed, tracer=tracer)
        # run_unit reaps its servers, so their CPU time is in RUSAGE_CHILDREN.
        tracer.count("sim", "server_cpu_s", children_cpu_s() - cpu_before)
        return untraced, traced

    def reference_digest(self, seed: int) -> str:
        """The same engine configuration run in process: the fabric's oracle."""
        configuration = replace(self.configuration(seed), simulator="inproc")
        result = ParallelCampaignEngine(configuration).run()
        return result_digest([result.campaign.to_dict(include_timing=False)])


WORKLOADS = {
    "campaign": lambda: CampaignWorkload("campaign", core="boom"),
    "xiangshan": lambda: CampaignWorkload("xiangshan", core="xiangshan", iterations_per_op=2),
    "fabric": FabricWorkload,
}


def peak_rss_mb(include_children: bool) -> float:
    """Peak RSS of this process, plus the largest reaped child when asked."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kilobytes += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kilobytes / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime
