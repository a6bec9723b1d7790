"""Determinism and caching tests for the parallel campaign runtime.

The core invariant of the refactor: a campaign fanned out over worker
processes yields *element-wise identical* results to the serial path for the
same ``CampaignConfig`` seed.
"""

import math

import pytest

from repro.core.attack_vectors import AttackVector
from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    PredictorKind,
    clear_caches,
    run_campaign,
    run_campaigns,
)
from repro.core.training import collect_safety_dataset
from repro.experiments.characterization import characterize_detector_ensemble
from repro.experiments.results import RunResult
from repro.runtime import ParallelExecutor, SerialExecutor
from repro.sim.config import SimulationConfig


def assert_runs_identical(a: RunResult, b: RunResult) -> None:
    """Field-wise equality with NaN == NaN (absent measurements match)."""
    for name in RunResult.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        if isinstance(left, float) and math.isnan(left):
            assert isinstance(right, float) and math.isnan(right), name
        else:
            assert left == right, (name, left, right)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestSerialParallelDeterminism:
    def test_golden_campaign_identical(self):
        config = CampaignConfig(
            campaign_id="det-none-ds1",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=4,
            seed=17,
        )
        serial = run_campaign(config, use_cache=False, executor=SerialExecutor())
        with ParallelExecutor(max_workers=2) as executor:
            parallel = run_campaign(config, use_cache=False, executor=executor)
        assert serial.n_runs == parallel.n_runs == 4
        for left, right in zip(serial.runs, parallel.runs):
            assert_runs_identical(left, right)

    def test_attacked_campaign_identical(self):
        # The kinematic oracle avoids NN training cost while still exercising
        # the predictor hand-off from parent to workers.
        config = CampaignConfig(
            campaign_id="det-robotack-ds2",
            scenario_id="DS-2",
            attacker=AttackerKind.ROBOTACK,
            vector=AttackVector.DISAPPEAR,
            n_runs=3,
            seed=23,
            predictor=PredictorKind.KINEMATIC,
        )
        serial = run_campaign(config, use_cache=False)
        parallel = run_campaign(config, use_cache=False, executor=2)
        for left, right in zip(serial.runs, parallel.runs):
            assert_runs_identical(left, right)

    def test_executor_shared_across_campaigns(self):
        configs = [
            CampaignConfig(
                campaign_id=f"shared-{scenario_id}",
                scenario_id=scenario_id,
                attacker=AttackerKind.NONE,
                n_runs=2,
                seed=5,
            )
            for scenario_id in ("DS-1", "DS-3")
        ]
        serial = run_campaigns(configs, use_cache=False)
        parallel = run_campaigns(configs, use_cache=False, executor=2)
        assert [c.campaign_id for c in serial] == [c.campaign_id for c in parallel]
        for s_campaign, p_campaign in zip(serial, parallel):
            for left, right in zip(s_campaign.runs, p_campaign.runs):
                assert_runs_identical(left, right)


class TestCampaignCaching:
    def _config(self) -> CampaignConfig:
        return CampaignConfig(
            campaign_id="cache-rt-ds1",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=2,
            seed=13,
        )

    def test_cache_hit_returns_same_object(self):
        first = run_campaign(self._config())
        second = run_campaign(self._config())
        assert first is second

    def test_parallel_execution_populates_the_same_cache(self):
        parallel = run_campaign(self._config(), executor=2)
        cached = run_campaign(self._config())
        assert cached is parallel


class LastFirstExecutor(SerialExecutor):
    """Completes its work items last to first, as a worker pool may, claims
    ``workers`` so that campaigns cut several chunks, and records its fan-outs
    and whether it was closed."""

    def __init__(self, workers: int = 3):
        self._workers = workers
        self.fanouts = 0
        self.closed = False

    @property
    def workers(self) -> int:
        return self._workers

    def imap(self, fn, items):
        self.fanouts += 1
        return reversed(list(super().imap(fn, items)))

    def close(self) -> None:
        self.closed = True


def _short_config(n_runs: int = 5) -> CampaignConfig:
    return CampaignConfig(
        campaign_id="one-path-ds1",
        scenario_id="DS-1",
        attacker=AttackerKind.NONE,
        n_runs=n_runs,
        seed=19,
        simulation=SimulationConfig(max_duration_s=1.5),
    )


class TestOneRunPath:
    """Chunks stream back through ``imap`` in completion order, and a
    campaign is assembled by run index, with or without a store."""

    @pytest.mark.parametrize("stored", [False, True], ids=["storeless", "stored"])
    def test_out_of_order_chunks_give_the_serial_campaign(self, tmp_path, stored):
        config = _short_config()
        serial = run_campaign(config, use_cache=False)
        executor = LastFirstExecutor(workers=3)  # chunks [0, 1], [2, 3], [4]
        reordered = run_campaign(
            config, use_cache=False, executor=executor, store=tmp_path if stored else None
        )
        assert executor.fanouts == 1
        assert [run.run_index for run in reordered.runs] == list(range(config.n_runs))
        for left, right in zip(serial.runs, reordered.runs):
            assert_runs_identical(left, right)


def _run_campaign_on(executor, tmp_path):
    run_campaign(_short_config(n_runs=2), use_cache=False, executor=executor)


def _run_campaigns_on(executor, tmp_path):
    run_campaigns([_short_config(n_runs=2)], use_cache=False, executor=executor)


def _store_campaign_on(executor, tmp_path):
    run_campaign(_short_config(n_runs=2), executor=executor, store=tmp_path)


def _collect_dataset_on(executor, tmp_path):
    collect_safety_dataset(
        "DS-2", AttackVector.DISAPPEAR, (42.0,), (12, 24), seed=3, executor=executor
    )


def _characterize_on(executor, tmp_path):
    characterize_detector_ensemble([1, 2], duration_s=1.0, executor=executor)


class TestCallersExecutorStaysOpen:
    """An entry point closes only an executor it resolved itself, so one
    executor (and its worker pool) can serve many calls."""

    @pytest.mark.parametrize(
        "entry_point",
        [
            _run_campaign_on,
            _run_campaigns_on,
            _store_campaign_on,
            _collect_dataset_on,
            _characterize_on,
        ],
        ids=["run_campaign", "run_campaigns", "stored_campaign", "collection",
             "characterization"],
    )
    def test_entry_point_leaves_the_executor_open(self, tmp_path, entry_point):
        executor = LastFirstExecutor(workers=2)
        entry_point(executor, tmp_path)
        assert executor.fanouts >= 1
        assert not executor.closed
