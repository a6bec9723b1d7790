"""Tests for the attack vectors and the scenario matcher (paper Table I)."""

import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.scenario_matcher import ScenarioMatcher, ScenarioMatcherConfig, TrajectoryClass
from repro.sim.actors import ActorKind


def estimate(lateral, lateral_velocity=0.0, kind=ActorKind.VEHICLE, distance=30.0):
    """An estimate row: (distance, lateral, relative velocity, lateral
    velocity, track id, actor id, kind, relative acceleration, age)."""
    return (distance, lateral, -3.0, lateral_velocity, 1, 1, kind, 0.0, 10)


class TestAttackVector:
    def test_from_string_accepts_paper_spelling(self):
        assert AttackVector.from_string("Move_Out") is AttackVector.MOVE_OUT
        assert AttackVector.from_string("disappear") is AttackVector.DISAPPEAR

    def test_from_string_rejects_unknown(self):
        with pytest.raises(ValueError):
            AttackVector.from_string("teleport")

    def test_vector_properties(self):
        assert AttackVector.MOVE_OUT.perturbs_lateral_position
        assert AttackVector.MOVE_IN.perturbs_lateral_position
        assert AttackVector.DISAPPEAR.suppresses_detections
        assert not AttackVector.DISAPPEAR.perturbs_lateral_position
        assert "emergency braking" in AttackVector.MOVE_IN.expected_hazard
        assert "collision" in AttackVector.MOVE_OUT.expected_hazard


class TestTrajectoryClassification:
    @pytest.fixture
    def matcher(self, road):
        return ScenarioMatcher(road)

    def test_keep_when_lateral_speed_small(self, matcher):
        assert matcher.classify_trajectory(estimate(0.5, 0.1)) is TrajectoryClass.KEEP

    def test_moving_in_towards_lane_center(self, matcher):
        # Left of centre, moving right (towards the centre).
        assert matcher.classify_trajectory(estimate(3.5, -1.0)) is TrajectoryClass.MOVING_IN
        # Right of centre, moving left (towards the centre).
        assert matcher.classify_trajectory(estimate(-3.5, 1.0)) is TrajectoryClass.MOVING_IN

    def test_moving_out_away_from_lane_center(self, matcher):
        assert matcher.classify_trajectory(estimate(0.5, 1.0)) is TrajectoryClass.MOVING_OUT
        assert matcher.classify_trajectory(estimate(-0.5, -1.0)) is TrajectoryClass.MOVING_OUT

    def test_lane_membership(self, matcher):
        assert matcher.in_ego_lane(estimate(0.0))
        assert not matcher.in_ego_lane(estimate(3.5))


class TestTableI:
    """The six cells of the paper's scenario-matching map."""

    @pytest.fixture
    def matcher(self, road):
        return ScenarioMatcher(road)

    def test_in_lane_keep_allows_move_out_and_disappear(self, matcher):
        vectors = matcher.candidate_vectors(estimate(0.3, 0.0))
        assert set(vectors) == {AttackVector.MOVE_OUT, AttackVector.DISAPPEAR}

    def test_in_lane_moving_out_allows_move_in(self, matcher):
        assert matcher.candidate_vectors(estimate(0.5, 1.2)) == (AttackVector.MOVE_IN,)

    def test_in_lane_moving_in_allows_nothing(self, matcher):
        assert matcher.candidate_vectors(estimate(0.9, -1.2)) == ()

    def test_out_of_lane_keep_allows_move_in(self, matcher):
        assert matcher.candidate_vectors(estimate(-3.5, 0.0)) == (AttackVector.MOVE_IN,)

    def test_out_of_lane_moving_in_allows_move_out_and_disappear(self, matcher):
        vectors = matcher.candidate_vectors(estimate(-3.5, 1.2))
        assert set(vectors) == {AttackVector.MOVE_OUT, AttackVector.DISAPPEAR}

    def test_out_of_lane_moving_out_allows_nothing(self, matcher):
        assert matcher.candidate_vectors(estimate(-3.5, -1.2)) == ()


class TestMatchSelection:
    def test_prefers_disappear_for_pedestrians(self, road):
        matcher = ScenarioMatcher(road)
        ped = estimate(0.3, 0.0, kind=ActorKind.PEDESTRIAN)
        assert matcher.match(ped) is AttackVector.DISAPPEAR

    def test_prefers_move_out_for_vehicles(self, road):
        matcher = ScenarioMatcher(road)
        assert matcher.match(estimate(0.3, 0.0)) is AttackVector.MOVE_OUT

    def test_respects_allowed_vectors(self, road):
        matcher = ScenarioMatcher(road, allowed_vectors=(AttackVector.DISAPPEAR,))
        assert matcher.match(estimate(0.3, 0.0)) is AttackVector.DISAPPEAR
        matcher_move_in_only = ScenarioMatcher(road, allowed_vectors=(AttackVector.MOVE_IN,))
        assert matcher_move_in_only.match(estimate(0.3, 0.0)) is None

    def test_distance_limits(self, road):
        matcher = ScenarioMatcher(road)
        assert matcher.match(estimate(0.3, 0.0, distance=200.0)) is None
        assert matcher.match(estimate(0.3, 0.0, distance=-1.0)) is None

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ScenarioMatcherConfig(keep_lateral_speed_mps=-1.0)
