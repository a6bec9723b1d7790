"""Unit tests for the falsification objectives.

The objectives score the :class:`RunRecord` objects the store hands back, so
every case here goes through a store round-trip first: what is scored is
exactly what a search reads from disk.
"""

from typing import List, Optional

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.experiments.results import RunResult
from repro.experiments.store import ExperimentStore, RunRecord
from repro.search.objectives import (
    OBJECTIVES,
    AttackSuccessRate,
    MinDeltaMargin,
    TimeToViolation,
)
from repro.sim.scenarios import ScenarioVariation

_HASH = "5" * 64


def _record(
    run_index: int,
    vector: Optional[AttackVector] = AttackVector.DISAPPEAR,
    emergency_braking: bool = False,
    accident: bool = False,
    duration_s: float = 10.0,
    min_delta_m: float = float("nan"),
) -> RunRecord:
    result = RunResult(
        run_index=run_index,
        seed=run_index,
        scenario_id="DS-3",
        attacker_kind="robotack",
        vector=vector,
        target_kind=None,
        attack_launched=True,
        emergency_braking=emergency_braking,
        collision=accident,
        accident=accident,
        min_true_delta_m=min_delta_m,
        true_delta_at_attack_end_m=float("nan"),
        predicted_delta_m=float("nan"),
        planned_k_frames=0,
        frames_perturbed=0,
        k_prime_frames=0,
        delta_at_launch_m=float("nan"),
    )
    empty = np.empty(0)
    return RunRecord(
        config_hash=_HASH,
        campaign_id="objectives",
        run_index=run_index,
        seed=run_index,
        variation=ScenarioVariation.nominal(),
        result=result,
        steps_executed=1,
        duration_s=duration_s,
        halted_on_collision=False,
        events=(),
        true_delta_trace=empty,
        perceived_delta_trace=empty,
        ego_speed_trace=empty,
    )


def _stored(tmp_path, *outcomes: dict) -> List[RunRecord]:
    """One record per outcome, as a search reads them back from the store."""
    store = ExperimentStore(tmp_path)
    for run_index, outcome in enumerate(outcomes):
        store.append(_record(run_index, **outcome))
    return store.load_records(_HASH, with_traces=False)


class TestAttackSuccessRate:
    def test_success_follows_the_shared_rule(self, tmp_path):
        # Move_In aims for spurious braking; every other vector, and a
        # vectorless baseline, for an accident.
        records = _stored(
            tmp_path,
            dict(vector=AttackVector.MOVE_IN, emergency_braking=True),
            dict(vector=AttackVector.MOVE_IN, accident=True),
            dict(vector=AttackVector.DISAPPEAR, accident=True),
            dict(vector=AttackVector.MOVE_OUT, emergency_braking=True),
            dict(vector=None, accident=True),
        )
        assert AttackSuccessRate().score(records) == pytest.approx(3 / 5)

    def test_no_runs_scores_zero(self):
        for name in ("attack_success", "time_to_violation", "min_delta_margin"):
            assert OBJECTIVES[name]().score([]) == 0.0


class TestTimeToViolation:
    def test_earliness_is_capped_at_the_horizon(self, tmp_path):
        records = _stored(
            tmp_path,
            dict(accident=True, duration_s=0.0),  # instant: 1
            dict(accident=True, duration_s=5.0),  # half the horizon: 0.5
            dict(accident=True, duration_s=25.0),  # past the horizon: 0
            dict(accident=False, duration_s=1.0),  # no violation: 0
        )
        assert TimeToViolation(horizon_s=10.0).score(records) == pytest.approx(1.5 / 4)

    def test_horizon_must_be_positive(self):
        # A NaN horizon scored NaN, which the search's argmax took as its best.
        for horizon_s in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^horizon_s must be positive and finite, got "):
                TimeToViolation(horizon_s=horizon_s)


class TestMinDeltaMargin:
    def test_non_finite_delta_scores_zero(self, tmp_path):
        records = _stored(
            tmp_path,
            dict(min_delta_m=float("nan")),
            dict(min_delta_m=float("inf")),
        )
        assert MinDeltaMargin(scale_m=10.0).score(records) == 0.0

    def test_margin_is_clamped_to_the_unit_interval(self, tmp_path):
        records = _stored(
            tmp_path,
            dict(min_delta_m=-3.0),  # below zero: 1
            dict(min_delta_m=5.0),  # half the scale: 0.5
            dict(min_delta_m=40.0),  # beyond the scale: 0
        )
        assert MinDeltaMargin(scale_m=10.0).score(records) == pytest.approx(1.5 / 3)

    def test_scale_must_be_positive(self):
        # A NaN scale scored NaN; an infinite one scored 1.0 for any finite
        # minimum delta, 2 m and 30 m alike.
        for scale_m in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^scale_m must be positive and finite, got "):
                MinDeltaMargin(scale_m=scale_m)
