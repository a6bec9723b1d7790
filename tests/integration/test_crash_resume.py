"""Crash/resume integration tests for store-checkpointed campaigns.

The contract of the resumable runner: a campaign killed after k of n runs
and later resumed produces a :class:`CampaignResult` whose statistics are
*bit-identical* to a clean, uninterrupted serial run — because every run is
independently seeded from ``(campaign_seed, run_index)`` and the store
skips exactly the (config-hash, run-index) pairs already on disk.

The crash is simulated with :class:`FaultInjectingExecutor`, which completes
a fixed number of work items (checkpointing them) and then dies.  A work item
is one chunk of lockstep runs, so the per-run checkpoint tests pin
``batch_size=1``: one run per work item.
"""

import math

import pytest

from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    clear_caches,
    run_campaign,
)
from repro.experiments.results import CampaignResult, RunResult
from repro.experiments.store import ExperimentStore, config_hash
from repro.runtime import FaultInjectingExecutor, InjectedFault, ParallelExecutor
from repro.sim.config import SimulationConfig


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _config(n_runs: int = 5, seed: int = 11) -> CampaignConfig:
    # Short runs keep the test fast; the resume semantics are length-agnostic.
    return CampaignConfig(
        campaign_id="resume-ds1",
        scenario_id="DS-1",
        attacker=AttackerKind.NONE,
        n_runs=n_runs,
        seed=seed,
        simulation=SimulationConfig(max_duration_s=1.5),
    )


def assert_runs_identical(a: RunResult, b: RunResult) -> None:
    for name in RunResult.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        if isinstance(left, float) and math.isnan(left):
            assert isinstance(right, float) and math.isnan(right), name
        else:
            assert left == right, (name, left, right)


def assert_campaigns_identical(a: CampaignResult, b: CampaignResult) -> None:
    assert a.n_runs == b.n_runs
    for left, right in zip(a.runs, b.runs):
        assert_runs_identical(left, right)
    # The aggregate statistics the tables are built from.
    assert a.emergency_braking_rate == b.emergency_braking_rate
    assert a.accident_rate == b.accident_rate
    assert a.min_delta_values() == b.min_delta_values()
    assert a.median_planned_k() == b.median_planned_k()


class TestCrashResume:
    def test_interrupted_then_resumed_is_bit_identical_to_clean_serial(self, tmp_path):
        config = _config()
        clean = run_campaign(config, use_cache=False, batch_size=1)

        store = ExperimentStore(tmp_path)
        with pytest.raises(InjectedFault):
            run_campaign(
                config, store=store, executor=FaultInjectingExecutor(2), batch_size=1
            )

        # The crash checkpointed exactly the completed runs...
        assert store.run_indices(config_hash(config)) == {0, 1}
        # ...and the store knows what is missing.
        (incomplete_config, missing), = store.incomplete_campaigns()
        assert incomplete_config == config
        assert missing == {2, 3, 4}

        resumed = run_campaign(config, store=store)
        assert_campaigns_identical(resumed, clean)
        assert store.incomplete_campaigns() == []

    def test_parallel_crash_serial_resume_is_bit_identical(self, tmp_path):
        # An out-of-order parallel crash leaves an arbitrary subset of run
        # indices behind; order-tagged checkpointing makes the merge exact.
        config = _config(n_runs=6, seed=29)
        clean = run_campaign(config, use_cache=False, batch_size=1)

        store = ExperimentStore(tmp_path)
        with ParallelExecutor(max_workers=2) as inner:
            with pytest.raises(InjectedFault):
                run_campaign(
                    config, store=store, executor=FaultInjectingExecutor(3, inner),
                    batch_size=1,
                )
        done = store.run_indices(config_hash(config))
        assert len(done) == 3
        assert done < set(range(6))

        resumed = run_campaign(config, store=store)
        assert_campaigns_identical(resumed, clean)

    def test_batch_crash_loses_at_most_the_chunk_in_flight(self, tmp_path):
        # On the default batch engine a work item is a chunk of lockstep runs:
        # a fault after the first chunk leaves exactly that chunk's indices.
        config = _config(n_runs=5, seed=17)
        clean = run_campaign(config, use_cache=False, batch_size=1)

        store = ExperimentStore(tmp_path)
        with pytest.raises(InjectedFault):
            run_campaign(
                config, store=store, executor=FaultInjectingExecutor(1), batch_size=2
            )
        assert store.run_indices(config_hash(config)) == {0, 1}

        resumed = run_campaign(config, store=store)
        assert_campaigns_identical(resumed, clean)
        assert store.incomplete_campaigns() == []

    def test_resume_of_complete_campaign_runs_nothing(self, tmp_path):
        config = _config(n_runs=3, seed=7)
        store = ExperimentStore(tmp_path)
        first = run_campaign(config, store=store)

        def exploding_worker(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a complete campaign must not re-execute runs")

        # A fault executor that dies on the *first* item proves nothing runs.
        second = run_campaign(config, store=store, executor=FaultInjectingExecutor(0))
        assert_campaigns_identical(first, second)

    def test_store_path_matches_plain_campaign_statistics(self, tmp_path):
        config = _config(n_runs=4, seed=3)
        plain = run_campaign(config, use_cache=False)
        stored = run_campaign(config, store=ExperimentStore(tmp_path))
        assert_campaigns_identical(plain, stored)
