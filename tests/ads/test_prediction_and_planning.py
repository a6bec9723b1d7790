"""Tests for obstacle prediction, the longitudinal planner, and the ADS agent."""

import numpy as np
import pytest

from repro.ads.planning import LongitudinalPlanner, PlannerConfig
from repro.ads.prediction import ObstaclePredictor, PredictionConfig
from repro.ads.world_model import WorldModel
from repro.geometry import Vec2
from repro.perception.fusion import FusedObstacle
from repro.sensors.gps_imu import EgoPoseEstimate
from repro.sim.actors import ActorKind
from repro.sim.road import Road
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
    return FusedObstacle(
        obstacle_id=obstacle_id,
        kind=kind,
        distance_m=distance,
        lateral_m=lateral,
        longitudinal_speed_mps=speed,
        lateral_velocity_mps=lateral_velocity,
        sources=("camera", "lidar"),
        actor_id=actor_id,
    )


def world(ego_speed, obstacles=()):
    ego = EgoPoseEstimate(time_s=0.0, position=Vec2(0, 0), speed_mps=ego_speed, acceleration_mps2=0.0)
    return WorldModel(time_s=0.0, ego=ego, obstacles=tuple(obstacles))


class TestObstaclePredictor:
    @pytest.fixture
    def predictor(self, road):
        return ObstaclePredictor(road)

    @staticmethod
    def lead(predictor, *obstacles):
        return predictor.lead_index(predictor.rows(obstacles))

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
        vehicle = obstacle(30, 0.0)
        assert predictor.gap(vehicle.kind, vehicle.distance_m) < vehicle.distance_m

    def test_pedestrians_near_path(self, predictor):
        ped = obstacle(30, -2.6, kind=ActorKind.PEDESTRIAN)
        fields = (ped.kind, ped.distance_m, ped.lateral_m)
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
        decision = planner.plan(world(ego_speed=8.0))
        assert decision.desired_acceleration_mps2 > 0
        assert not decision.emergency_brake
        assert decision.perceived_delta_m == float("inf")

    def test_holds_speed_at_cruise(self, planner):
        decision = planner.plan(world(ego_speed=kph_to_mps(45.0)))
        assert abs(decision.desired_acceleration_mps2) < 0.2

    def test_brakes_for_slow_lead_vehicle(self, planner):
        decision = planner.plan(world(ego_speed=12.5, obstacles=[obstacle(25, 0.0, speed=5.0)]))
        assert decision.desired_acceleration_mps2 < 0
        assert decision.lead_obstacle is not None

    def test_lead_is_nearest_in_path_obstacle_on_unsorted_input(self, planner):
        # ``plan`` accepts any WorldModel, not only fusion's distance-sorted
        # output: the lead must be the nearest relevant obstacle, not the
        # first one listed.
        far = obstacle(45, 0.0, speed=5.0, obstacle_id="far", actor_id=1)
        near = obstacle(25, 0.0, speed=5.0, obstacle_id="near", actor_id=2)
        decision = planner.plan(world(ego_speed=12.5, obstacles=[far, near]))
        assert decision.lead_obstacle is near
        gap = planner.predictor.gap(near.kind, near.distance_m)
        assert decision.perceived_delta_m == planner.safety_model.safety_potential(gap, 12.5)

    def test_ignores_parked_vehicle_in_parking_lane(self, planner):
        decision = planner.plan(world(ego_speed=12.5, obstacles=[obstacle(40, -3.5, speed=0.0)]))
        assert decision.lead_obstacle is None

    def test_emergency_brake_for_suddenly_close_stopped_obstacle(self, planner):
        decision = planner.plan(world(ego_speed=12.5, obstacles=[obstacle(16, 0.0, speed=0.0)]))
        assert decision.emergency_brake
        assert decision.desired_acceleration_mps2 == pytest.approx(-PlannerConfig().max_decel_mps2)

    def test_no_emergency_brake_when_obstacle_faster(self, planner):
        decision = planner.plan(world(ego_speed=10.0, obstacles=[obstacle(12, 0.0, speed=15.0)]))
        assert not decision.emergency_brake

    def test_pedestrian_caution_caps_target_speed(self, planner):
        ped = obstacle(30, -2.6, kind=ActorKind.PEDESTRIAN)
        decision = planner.plan(world(ego_speed=12.5, obstacles=[ped]))
        assert decision.target_speed_mps == pytest.approx(kph_to_mps(35.0))

    def test_lost_lead_triggers_coasting(self, planner):
        # Establish a lead obstacle, then make it vanish: the planner should
        # not accelerate for the coasting hold period.
        planner.plan(world(ego_speed=8.0, obstacles=[obstacle(20, 0.0, speed=7.0)]))
        after_loss = planner.plan(world(ego_speed=8.0))
        assert after_loss.desired_acceleration_mps2 <= 0.0

    def test_coasting_expires(self, planner):
        planner.plan(world(ego_speed=8.0, obstacles=[obstacle(20, 0.0, speed=7.0)]))
        for _ in range(PlannerConfig().lost_lead_coast_frames + 1):
            decision = planner.plan(world(ego_speed=8.0))
        assert decision.desired_acceleration_mps2 > 0.0

    def test_reset_clears_coasting_state(self, planner):
        planner.plan(world(ego_speed=8.0, obstacles=[obstacle(20, 0.0, speed=7.0)]))
        planner.reset()
        decision = planner.plan(world(ego_speed=8.0))
        assert decision.desired_acceleration_mps2 > 0.0

    def test_perceived_delta_matches_safety_model(self, planner):
        lead = obstacle(30, 0.0, speed=5.0)
        decision = planner.plan(world(ego_speed=10.0, obstacles=[lead]))
        gap = planner.predictor.gap(lead.kind, lead.distance_m)
        expected = planner.safety_model.safety_potential(gap, 10.0)
        assert decision.perceived_delta_m == pytest.approx(expected)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PlannerConfig(cruise_speed_mps=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(comfortable_decel_mps2=5.0, max_decel_mps2=4.0)


class TestWorldModel:
    def test_obstacles_ahead_sorted_and_filtered(self):
        model = world(
            10.0,
            obstacles=[
                obstacle(50, 0.0, obstacle_id="far", actor_id=1),
                obstacle(20, 0.0, obstacle_id="near", actor_id=2),
                obstacle(-5, 0.0, obstacle_id="behind", actor_id=3),
            ],
        )
        ahead = model.obstacles_ahead()
        assert [o.obstacle_id for o in ahead] == ["near", "far"]
        assert model.nearest_obstacle().obstacle_id == "near"
        assert model.obstacle_count() == 3

    def test_obstacle_for_actor(self):
        model = world(10.0, obstacles=[obstacle(20, 0.0, actor_id=7)])
        assert model.obstacle_for_actor(7) is not None
        assert model.obstacle_for_actor(8) is None

    def test_max_distance_filter(self):
        model = world(10.0, obstacles=[obstacle(20, 0.0), obstacle(90, 0.0, obstacle_id="x", actor_id=2)])
        assert len(model.obstacles_ahead(max_distance_m=50.0)) == 1


class TestAdsAgentIntegration:
    def test_agent_decision_has_consistent_fields(self, nominal_ds1, ads_factory):
        from repro.sensors.camera import CameraSensor
        from repro.sensors.gps_imu import GpsImuSensor
        from repro.sensors.lidar import LidarSensor

        agent = ads_factory(nominal_ds1)
        camera, lidar = CameraSensor(), LidarSensor(rng=np.random.default_rng(0))
        gps = GpsImuSensor(rng=np.random.default_rng(1))
        decision = None
        for _ in range(10):
            snapshot = nominal_ds1.world.snapshot()
            decision = agent.step(
                camera.capture(snapshot), lidar.scan(snapshot), gps.measure(snapshot), 1.0 / 15.0
            )
            nominal_ds1.world.step(1.0 / 15.0, decision.acceleration_mps2)
        assert decision.perception is not None
        assert decision.world_model.obstacle_count() >= 1
        assert -6.0 <= decision.acceleration_mps2 <= 2.0

    def test_agent_reset(self, nominal_ds1, ads_factory):
        agent = ads_factory(nominal_ds1)
        agent.reset()
        assert agent.perception.tracker.tracks == {}
