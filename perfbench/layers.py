"""Which program entry points the traced run wraps, and the per-layer metrics.

Layer names follow the program's module names.  Each probe wraps one public
method from outside the program; counts are recorded at the same boundary
(``observe``) or taken from the program's own ``stats()`` objects by the
workload, never reconstructed.

Counts and seconds are reported per traced unit, so counts repeat exactly for
a seed; ``*.share`` values are shares of the traced wall time.  Layers that do
not run on a workload report 0 (the phases and ``uarch`` run inside the
simulator servers on ``fabric``, out of reach of this client-side tracer).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.core.coverage import TaintCoverageMatrix
from repro.core.engine import CampaignScheduler
from repro.core.phase1 import WindowBatchEvaluator
from repro.core.phase2 import TransientExecutionExploration
from repro.core.phase3 import TransientLeakageAnalysis
from repro.generation.mutation import Mutator
from repro.generation.trigger import TriggerGenerator
from repro.isa.assembler import Assembler
from repro.sim.client import SimProcessPool, SubprocessSimulator
from repro.swapmem.scheduler import SwapRunner
from repro.uarch.processor import Processor

from perfbench.tracer import Probe, Tracer


def _count_cycles(tracer: Tracer, outcome) -> None:
    tracer.count("uarch", "cycles", outcome.cycles)


def _count_packet_cycles(tracer: Tracer, result) -> None:
    tracer.count("swapmem", "training_cycles", result.training_cycles())
    tracer.count("swapmem", "transient_cycles", result.transient_packet_cycles() or 0)


def _count_trigger(tracer: Tracer, result) -> None:
    head = result[0]
    tracer.count("core.phase1", "triggered", int(head.triggered))


def _count_propagated(tracer: Tracer, result) -> None:
    tracer.count("core.phase2", "propagated", int(result.secret_propagated))


def _count_leak(tracer: Tracer, result) -> None:
    tracer.count("core.phase3", "leaks", int(result.verdict.is_leak))


PROBES: List[Probe] = [
    Probe(Processor, "run", "uarch", _count_cycles),
    Probe(SwapRunner, "run", "swapmem", _count_packet_cycles),
    Probe(WindowBatchEvaluator, "evaluate", "core.phase1", _count_trigger),
    Probe(TransientExecutionExploration, "run", "core.phase2", _count_propagated),
    Probe(TransientLeakageAnalysis, "run", "core.phase3", _count_leak),
    Probe(TransientLeakageAnalysis, "sanitize_and_rerun", "core.phase3.rerun"),
    Probe(TriggerGenerator, "generate", "generation.generate"),
    Probe(TriggerGenerator, "verify_with_golden_model", "generation.verify"),
    Probe(Mutator, "mutate_window", "generation.mutate"),
    Probe(Mutator, "mutate_trigger", "generation.mutate"),
    Probe(Mutator, "mutate_secret", "generation.mutate"),
    Probe(Assembler, "assemble", "isa.assemble"),
    Probe(Assembler, "assemble_instructions", "isa.assemble"),
    Probe(TaintCoverageMatrix, "observe_census_log", "core.coverage"),
    Probe(CampaignScheduler, "complete_epoch", "core.engine"),
    # The pool's run_task covers idle-server eviction as well as the task.
    Probe(SimProcessPool, "run_task", "sim"),
    # begin_task spawns a server when the slot has none, so a LOAD round
    # trip includes the spawn and interpreter boot it waits for.
    Probe(SubprocessSimulator, "begin_task", "sim.load"),
    Probe(SubprocessSimulator, "advance", "sim.step"),
]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER_METRICS: List[Tuple[str, str]] = [
    ("uarch.calls", "count"),
    ("uarch.cycles", "cycles"),
    ("uarch.busy_s", "s"),
    ("uarch.cycles_per_s", "cycles/s"),
    ("uarch.share", "ratio"),
    ("swapmem.runs", "count"),
    ("swapmem.self_s", "s"),
    ("swapmem.training_cycles", "cycles"),
    ("swapmem.transient_cycles", "cycles"),
    ("swapmem.training_share", "ratio"),
    ("core.phase1.evaluations", "count"),
    ("core.phase1.self_s", "s"),
    ("core.phase1.share", "ratio"),
    ("core.phase1.trigger_ratio", "ratio"),
    ("core.phase1.sim_cache_hit_ratio", "ratio"),
    ("core.phase1.dut_reuse_ratio", "ratio"),
    ("core.phase2.runs", "count"),
    ("core.phase2.self_s", "s"),
    ("core.phase2.share", "ratio"),
    ("core.phase2.propagated_ratio", "ratio"),
    ("core.phase3.runs", "count"),
    ("core.phase3.share", "ratio"),
    ("core.phase3.rerun_s", "s"),
    ("core.phase3.leak_ratio", "ratio"),
    ("generation.generate_s", "s"),
    ("generation.verify_s", "s"),
    ("generation.mutate_s", "s"),
    ("isa.assemble_s", "s"),
    ("isa.assembly_cache_hit_ratio", "ratio"),
    ("core.coverage.observe_s", "s"),
    ("core.engine.merges", "count"),
    ("core.engine.merge_s", "s"),
    ("core.engine.transfers", "count"),
    ("sim.tasks", "count"),
    ("sim.spawns", "count"),
    ("sim.spawns_per_task", "ratio"),
    ("sim.load_p50_ms", "ms"),
    ("sim.step_rtt_p50_ms", "ms"),
    ("sim.restarts", "count"),
    ("sim.server_cpu_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.self_share_sum", "ratio"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p50_ms(durations: List[float]) -> float:
    return statistics.median(durations) * 1000.0 if durations else 0.0


def layer_metrics(tracer: Tracer, units: int, wall_s: float, overhead: float) -> Dict[str, float]:
    """Per-layer metric values from ``units`` traced units lasting ``wall_s``."""
    layers = tracer.layers

    def calls(layer: str) -> float:
        return layers[layer].calls / units

    def inclusive(layer: str) -> float:
        return layers[layer].inclusive_s / units

    def self_s(layer: str) -> float:
        return layers[layer].self_s / units

    def counted(layer: str, name: str) -> float:
        return layers[layer].counts.get(name, 0) / units

    per_unit_wall = wall_s / units
    uarch_cycles = counted("uarch", "cycles")
    training = counted("swapmem", "training_cycles")
    transient = counted("swapmem", "transient_cycles")
    values = {
        "uarch.calls": calls("uarch"),
        "uarch.cycles": uarch_cycles,
        "uarch.busy_s": inclusive("uarch"),
        "uarch.cycles_per_s": _ratio(uarch_cycles, inclusive("uarch")),
        "uarch.share": _ratio(self_s("uarch"), per_unit_wall),
        "swapmem.runs": calls("swapmem"),
        "swapmem.self_s": self_s("swapmem"),
        "swapmem.training_cycles": training,
        "swapmem.transient_cycles": transient,
        "swapmem.training_share": _ratio(training, training + transient),
        "core.phase1.evaluations": calls("core.phase1"),
        "core.phase1.self_s": self_s("core.phase1"),
        "core.phase1.share": _ratio(inclusive("core.phase1"), per_unit_wall),
        "core.phase1.trigger_ratio": _ratio(
            counted("core.phase1", "triggered"), calls("core.phase1")
        ),
        "core.phase1.sim_cache_hit_ratio": _ratio(
            counted("core.phase1", "sim_cache_hits"),
            counted("core.phase1", "sim_cache_lookups"),
        ),
        "core.phase1.dut_reuse_ratio": _ratio(
            counted("core.phase1", "dut_reuses"), counted("core.phase1", "dut_checkouts")
        ),
        "core.phase2.runs": calls("core.phase2"),
        "core.phase2.self_s": self_s("core.phase2"),
        "core.phase2.share": _ratio(inclusive("core.phase2"), per_unit_wall),
        "core.phase2.propagated_ratio": _ratio(
            counted("core.phase2", "propagated"), calls("core.phase2")
        ),
        "core.phase3.runs": calls("core.phase3"),
        "core.phase3.share": _ratio(inclusive("core.phase3"), per_unit_wall),
        "core.phase3.rerun_s": inclusive("core.phase3.rerun"),
        "core.phase3.leak_ratio": _ratio(counted("core.phase3", "leaks"), calls("core.phase3")),
        "generation.generate_s": inclusive("generation.generate"),
        "generation.verify_s": inclusive("generation.verify"),
        "generation.mutate_s": inclusive("generation.mutate"),
        "isa.assemble_s": inclusive("isa.assemble"),
        "isa.assembly_cache_hit_ratio": _ratio(
            counted("isa.assemble", "cache_hits"), counted("isa.assemble", "cache_lookups")
        ),
        "core.coverage.observe_s": inclusive("core.coverage"),
        "core.engine.merges": calls("core.engine"),
        "core.engine.merge_s": inclusive("core.engine"),
        "core.engine.transfers": counted("core.engine", "transfers"),
        "sim.tasks": calls("sim"),
        "sim.spawns": counted("sim", "spawns"),
        "sim.spawns_per_task": _ratio(counted("sim", "spawns"), calls("sim")),
        "sim.load_p50_ms": _p50_ms(layers["sim.load"].durations),
        "sim.step_rtt_p50_ms": _p50_ms(layers["sim.step"].durations),
        "sim.restarts": counted("sim", "restarts"),
        "sim.server_cpu_s": counted("sim", "server_cpu_s"),
        "trace.overhead": overhead,
        "trace.wall_s": per_unit_wall,
        "trace.self_share_sum": _ratio(tracer.total_self_s(), wall_s),
    }
    return values
