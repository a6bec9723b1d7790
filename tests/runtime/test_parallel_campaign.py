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
from repro.experiments.results import RunResult
from repro.runtime import ParallelExecutor, SerialExecutor


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
