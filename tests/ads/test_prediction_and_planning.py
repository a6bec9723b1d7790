"""Tests for obstacle prediction, the longitudinal planner, and the ADS agent.

Obstacles are the fusion stage's obstacle rows (see
:mod:`repro.perception.fusion`), which the planner's row core reads.
"""

import numpy as np
import pytest

from repro.ads.planning import LongitudinalPlanner, PlannerConfig
from repro.ads.prediction import ObstaclePredictor, PredictionConfig
from repro.sim.actors import ActorKind
from repro.utils.units import kph_to_mps


def obstacle(
    distance,
    lateral,
    speed=0.0,
    lateral_velocity=0.0,
    kind=ActorKind.VEHICLE,
    obstacle_id="obs-1",
    actor_id=1,
):
    """An obstacle row: (kind, distance, lateral, speed, lateral velocity,
    obstacle id, sources, actor id)."""
    return (kind, distance, lateral, speed, lateral_velocity, obstacle_id,
            ("camera", "lidar"), actor_id)


def plan(planner, ego_speed, obstacles=()):
    """(desired acceleration, emergency brake, perceived delta, lead row
    index, target speed) for one planning cycle."""
    return planner.plan_rows(list(obstacles), ego_speed)


class TestObstaclePredictor:
    @pytest.fixture
    def predictor(self, road):
        return ObstaclePredictor(road)

    @staticmethod
    def lead(predictor, *obstacles):
        return predictor.lead_index(list(obstacles))

    def test_in_lane_vehicle_is_in_path(self, predictor):
        assert self.lead(predictor, obstacle(30, 0.0)) == 0

    def test_parked_vehicle_not_in_path(self, predictor):
        assert self.lead(predictor, obstacle(30, -3.5)) is None

    def test_crossing_pedestrian_predicted_in_path(self, predictor):
        standing = obstacle(40, -3.0, kind=ActorKind.PEDESTRIAN)
        assert self.lead(predictor, standing) is None  # not in the lane now
        crossing = obstacle(40, -3.0, lateral_velocity=1.4, kind=ActorKind.PEDESTRIAN)
        assert self.lead(predictor, crossing) == 0

    def test_small_lateral_velocity_ignored(self, predictor):
        ped = obstacle(40, -3.0, lateral_velocity=0.3, kind=ActorKind.PEDESTRIAN)
        assert self.lead(predictor, ped) is None

    def test_close_range_prediction_disabled(self, predictor):
        ped = obstacle(5.0, -3.0, lateral_velocity=1.4, kind=ActorKind.PEDESTRIAN)
        assert self.lead(predictor, ped) is None

    def test_nearest_in_path_selection(self, predictor):
        near_out_of_lane = obstacle(15, 3.5, obstacle_id="a", actor_id=1)
        far_in_lane = obstacle(40, 0.0, obstacle_id="b", actor_id=2)
        assert self.lead(predictor, near_out_of_lane, far_in_lane) == 1

    def test_nearest_in_path_none_when_clear(self, predictor):
        assert self.lead(predictor, obstacle(30, 3.5)) is None

    def test_bumper_gap_subtracts_half_length(self, predictor):
        kind, distance = obstacle(30, 0.0)[:2]
        assert predictor.gap(kind, distance) < distance

    def test_pedestrians_near_path(self, predictor):
        ped = obstacle(30, -2.6, kind=ActorKind.PEDESTRIAN)
        fields = ped[:3]
        assert predictor.near_path_pedestrian(*fields, max_distance_m=45.0, caution_margin_m=1.6)
        assert not predictor.near_path_pedestrian(
            *fields, max_distance_m=20.0, caution_margin_m=1.6
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PredictionConfig(horizon_s=-1.0)


class TestLongitudinalPlanner:
    @pytest.fixture
    def planner(self, road):
        return LongitudinalPlanner(road, PlannerConfig())

    def test_accelerates_on_clear_road_below_cruise(self, planner):
        desired, emergency, perceived, _, _ = plan(planner, ego_speed=8.0)
        assert desired > 0
        assert not emergency
        assert perceived == float("inf")

    def test_holds_speed_at_cruise(self, planner):
        desired = plan(planner, ego_speed=kph_to_mps(45.0))[0]
        assert abs(desired) < 0.2

    def test_brakes_for_slow_lead_vehicle(self, planner):
        desired, _, _, lead, _ = plan(planner, 12.5, [obstacle(25, 0.0, speed=5.0)])
        assert desired < 0
        assert lead is not None

    def test_lead_is_nearest_in_path_obstacle_on_unsorted_input(self, planner):
        # ``plan_rows`` accepts rows in any order, not only fusion's
        # distance-sorted output: the lead must be the nearest relevant
        # obstacle, not the first one listed.
        far = obstacle(45, 0.0, speed=5.0, obstacle_id="far", actor_id=1)
        near = obstacle(25, 0.0, speed=5.0, obstacle_id="near", actor_id=2)
        obstacles = [far, near]
        _, _, perceived, lead, _ = plan(planner, 12.5, obstacles)
        assert obstacles[lead] is near
        gap = planner.predictor.gap(near[0], near[1])
        assert perceived == planner.safety_model.safety_potential(gap, 12.5)

    def test_ignores_parked_vehicle_in_parking_lane(self, planner):
        lead = plan(planner, 12.5, [obstacle(40, -3.5, speed=0.0)])[3]
        assert lead is None

    def test_emergency_brake_for_suddenly_close_stopped_obstacle(self, planner):
        desired, emergency, _, _, _ = plan(planner, 12.5, [obstacle(16, 0.0, speed=0.0)])
        assert emergency
        assert desired == pytest.approx(-PlannerConfig().max_decel_mps2)

    def test_no_emergency_brake_when_obstacle_faster(self, planner):
        emergency = plan(planner, 10.0, [obstacle(12, 0.0, speed=15.0)])[1]
        assert not emergency

    def test_pedestrian_caution_caps_target_speed(self, planner):
        ped = obstacle(30, -2.6, kind=ActorKind.PEDESTRIAN)
        target_speed = plan(planner, 12.5, [ped])[4]
        assert target_speed == pytest.approx(kph_to_mps(35.0))

    def test_lost_lead_triggers_coasting(self, planner):
        # Establish a lead obstacle, then make it vanish: the planner should
        # not accelerate for the coasting hold period.
        plan(planner, 8.0, [obstacle(20, 0.0, speed=7.0)])
        assert plan(planner, 8.0)[0] <= 0.0

    def test_coasting_expires(self, planner):
        plan(planner, 8.0, [obstacle(20, 0.0, speed=7.0)])
        for _ in range(PlannerConfig().lost_lead_coast_frames + 1):
            desired = plan(planner, 8.0)[0]
        assert desired > 0.0

    def test_reset_clears_coasting_state(self, planner):
        plan(planner, 8.0, [obstacle(20, 0.0, speed=7.0)])
        planner.reset()
        assert plan(planner, 8.0)[0] > 0.0

    def test_perceived_delta_matches_safety_model(self, planner):
        lead = obstacle(30, 0.0, speed=5.0)
        perceived = plan(planner, 10.0, [lead])[2]
        gap = planner.predictor.gap(lead[0], lead[1])
        expected = planner.safety_model.safety_potential(gap, 10.0)
        assert perceived == pytest.approx(expected)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PlannerConfig(cruise_speed_mps=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(comfortable_decel_mps2=5.0, max_decel_mps2=4.0)


class TestAdsAgentIntegration:
    def test_agent_decision_has_consistent_fields(self, nominal_ds1, ads_factory):
        """Ten perceive-plan-act cycles through the agent's row cores, as a
        simulation lane runs them."""
        from repro.sensors.camera import CameraSensor
        from repro.sensors.gps_imu import GpsImuSensor
        from repro.sensors.lidar import LidarSensor

        agent = ads_factory(nominal_ds1)
        perception = agent.perception
        camera, lidar = CameraSensor(), LidarSensor(rng=np.random.default_rng(0))
        gps = GpsImuSensor(rng=np.random.default_rng(1))
        dt = 1.0 / 15.0
        world = nominal_ds1.world
        for _ in range(10):
            _x, _y, speed = gps.read(world)
            perception.tracker.step(perception.detector.detect_rows(camera.render_rows(world)))
            estimates = perception.transform.estimate_rows(perception.tracker.observed)
            obstacles = perception.fusion.fuse(estimates, lidar.scan_rows(world), speed, dt)
            desired, emergency, _, _, target_speed = agent.planner.plan_rows(obstacles, speed)
            acceleration = agent.actuate(desired, emergency, target_speed, speed, dt)
            world.step(dt, acceleration)
        assert estimates
        assert len(obstacles) >= 1
        assert -6.0 <= acceleration <= 2.0

    def test_agent_reset(self, nominal_ds1, ads_factory):
        agent = ads_factory(nominal_ds1)
        agent.reset()
        assert agent.perception.tracker.tracks == {}
