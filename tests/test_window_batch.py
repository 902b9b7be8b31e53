"""Tests for batched window evaluation: DUT reuse via Processor.reset() /
SwapMemory.rearm(), and the batch accounting.

The shared contract under test: batching is *byte-transparent* — the same
campaign run with the DUT pool on or off, and on any execution path,
produces byte-identical deterministic wire forms.
"""

import json

import pytest

from repro.core.backends import (
    AsyncBackend,
    InlineBackend,
    ProcessPoolBackend,
    ShardTask,
    run_shard_task,
)
from repro.core.distributed import (
    DistributedBackend,
    fuzzer_configuration_from_wire,
    fuzzer_configuration_to_wire,
)
from repro.core.engine import (
    EngineConfiguration,
    ParallelCampaignEngine,
    run_parallel_campaign,
)
from repro.core.fuzzer import DejaVuzzFuzzer, FuzzerConfiguration, run_quick_campaign
from repro.core.phase1 import DEFAULT_LAYOUT, DutPool, TransientWindowTriggering
from repro.core.report import CampaignResult
from repro.core.worker import run_worker
from repro.generation.seeds import Seed
from repro.generation.window_types import TransientWindowType
from repro.uarch import small_boom_config
from repro.utils.rng import DeterministicRng

BOOM = small_boom_config()


def deterministic_dict(iterations=8, entropy=11, **overrides):
    result = run_quick_campaign(BOOM, iterations, entropy=entropy, **overrides)
    return result.to_dict(include_timing=False)


def engine_wire(result):
    return json.dumps(result.campaign.to_dict(include_timing=False), sort_keys=True)


def make_seed(seed_id=7, entropy=13, window_type=TransientWindowType.BRANCH_MISPREDICTION):
    return Seed(seed_id=seed_id, entropy=entropy, window_type=window_type)


class TestBatchAccounting:
    def test_window_steps_match_batch_counters(self):
        # Every Phase-1 batch is one "window" boundary of the stepwise
        # campaign, and the steps charge exactly the batch's simulations.
        fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=6))
        generator = fuzzer.campaign_steps(12)
        steps = []
        while True:
            try:
                steps.append(next(generator))
            except StopIteration:
                break
        window_steps = [step for step in steps if step.phase == "window"]
        stats = fuzzer.batch_stats()
        assert window_steps
        assert len(window_steps) == stats["window_batches"]
        assert sum(step.simulations for step in window_steps) == (
            stats["batch_simulations"]
        )


class TestDutPool:
    def test_pooled_and_fresh_runs_are_identical_interleaved(self):
        pooled = TransientWindowTriggering(BOOM, dut_pool=True)
        fresh = TransientWindowTriggering(BOOM, dut_pool=False)
        rng = DeterministicRng(99, "dut-pool-test")
        for index in range(10):
            seed = make_seed(
                seed_id=index,
                entropy=rng.randint(0, 2**31 - 1),
                window_type=rng.choice(list(TransientWindowType)),
            )
            a = pooled.run(seed)
            b = fresh.run(seed)
            assert a.to_dict() == b.to_dict()
        assert pooled.dut_pool.reuses > 0
        assert fresh.dut_pool is None

    def test_pool_knob_is_byte_identical(self):
        assert deterministic_dict(dut_pool=False) == deterministic_dict()

    def test_pool_reuses_one_dut_across_a_campaign(self):
        fuzzer = DejaVuzzFuzzer(FuzzerConfiguration(core=BOOM, entropy=11))
        fuzzer.run_campaign(iterations=8)
        stats = fuzzer.batch_stats()
        assert stats["dut_constructions"] == 1
        assert stats["dut_reuses"] > 0

    def test_concurrent_checkout_falls_back_to_fresh(self):
        pool = DutPool(BOOM, DEFAULT_LAYOUT)
        memory_a, processor_a = pool.checkout(secret=0x1234)
        memory_b, processor_b = pool.checkout(secret=0x1234)
        assert processor_a is not processor_b
        assert memory_a is not memory_b
        assert pool.constructions == 2
        pool.checkin(processor_a)
        # The pooled DUT is back; the next checkout reuses it.
        _, processor_c = pool.checkout(secret=0x5678)
        assert processor_c is processor_a
        assert pool.reuses == 1


class TestBatchingAcrossExecutionPaths:
    ENGINE_KWARGS = dict(
        shards=2, slices=2, iterations=8, sync_epochs=2, entropy=9
    )

    @pytest.fixture(scope="class")
    def inline_reference(self):
        result = run_parallel_campaign(
            BOOM, executor="inline", **self.ENGINE_KWARGS
        )
        return engine_wire(result)

    def test_inline_lookahead_matches_reference(self, inline_reference):
        batched = run_parallel_campaign(
            BOOM, executor="inline", dut_pool=False, **self.ENGINE_KWARGS
        )
        assert engine_wire(batched) == inline_reference
        # Every run reports batch rows; the analysis table picks them up.
        from repro.analysis import window_batch_table

        rows = window_batch_table(batched.sim_log)
        assert rows and sum(row["batches"] for row in rows) > 0

    def test_process_pool_lookahead_matches_reference(self, inline_reference):
        batched = run_parallel_campaign(
            BOOM, executor="process", dut_pool=False, **self.ENGINE_KWARGS
        )
        assert engine_wire(batched) == inline_reference

    def test_async_lookahead_matches_reference(self, inline_reference):
        batched = run_parallel_campaign(
            BOOM, executor="async", dut_pool=False, **self.ENGINE_KWARGS
        )
        assert engine_wire(batched) == inline_reference

    def test_distributed_lookahead_matches_reference(self, inline_reference):
        import threading

        backend = DistributedBackend(listen="127.0.0.1:0")
        try:
            threading.Thread(
                target=run_worker,
                kwargs=dict(
                    connect=f"{backend.address[0]}:{backend.address[1]}", quiet=True
                ),
                daemon=True,
            ).start()
            batched = run_parallel_campaign(
                BOOM, executor="inline", backend=backend, dut_pool=False,
                **self.ENGINE_KWARGS,
            )
        finally:
            backend.close()
        assert engine_wire(batched) == inline_reference

    def test_subprocess_simulator_lookahead_matches_inproc(self):
        def task(simulator, dut_pool):
            return ShardTask(
                slice_index=0,
                epoch=0,
                iterations=6,
                configuration=FuzzerConfiguration(
                    core=BOOM, entropy=6, seed_id_base=10, dut_pool=dut_pool
                ),
                simulator=simulator,
            )

        def deterministic_payload(payload):
            result = CampaignResult.from_dict(payload["result"]).to_dict(
                include_timing=False
            )
            return {
                "slice_index": payload["slice_index"],
                "core": payload["core"],
                "result": result,
                "points": payload["points"],
                "top_seeds": payload["top_seeds"],
            }

        reference = deterministic_payload(run_shard_task(task("inproc", True)))
        subprocess_payload = run_shard_task(task("subprocess", False))
        assert deterministic_payload(subprocess_payload) == reference
        # The client merged its process counters into the runner's batch row.
        stats = subprocess_payload["sim_stats"]
        assert stats["spawns"] >= 1
        assert stats["window_batches"] > 0


class TestCheckpointResume:
    def test_resume_mid_campaign_with_lookahead_is_byte_identical(self, tmp_path):
        def configuration(checkpoint=None):
            return EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM, entropy=6, dut_pool=False),
                shards=2,
                slices=2,
                iterations=12,
                sync_epochs=3,
                executor="inline",
                checkpoint_path=checkpoint,
            )

        uninterrupted = ParallelCampaignEngine(configuration()).run()
        checkpoint = str(tmp_path / "batched.json")
        halted = ParallelCampaignEngine(configuration(checkpoint)).run(max_epochs=1)
        assert not halted.complete
        resumed = ParallelCampaignEngine.resume_from(
            checkpoint, configuration(checkpoint)
        ).run()
        assert engine_wire(resumed) == engine_wire(uninterrupted)

    def test_lookahead_is_not_part_of_the_campaign_identity(self, tmp_path):
        # Batching knobs are transparent, so a checkpoint written with the
        # DUT pool on resumes with it off (and vice versa) with identical
        # results.
        def configuration(dut_pool, checkpoint):
            return EngineConfiguration(
                fuzzer=FuzzerConfiguration(core=BOOM, entropy=6),
                shards=2,
                slices=2,
                iterations=12,
                sync_epochs=3,
                executor="inline",
                checkpoint_path=checkpoint,
                dut_pool=dut_pool,
            )

        uninterrupted = ParallelCampaignEngine(configuration(True, None)).run()
        checkpoint = str(tmp_path / "identity.json")
        ParallelCampaignEngine(configuration(True, checkpoint)).run(max_epochs=1)
        resumed = ParallelCampaignEngine.resume_from(
            checkpoint, configuration(False, checkpoint)
        ).run()
        assert engine_wire(resumed) == engine_wire(uninterrupted)


class TestWireDefaults:
    def test_batch_knobs_round_trip(self):
        configuration = FuzzerConfiguration(
            core=BOOM, entropy=5, sim_cache=False, dut_pool=False
        )
        decoded = fuzzer_configuration_from_wire(
            fuzzer_configuration_to_wire(configuration)
        )
        assert decoded == configuration

