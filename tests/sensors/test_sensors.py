"""Tests for the camera, LiDAR, and GPS/IMU sensor models."""

import numpy as np
import pytest

from repro.sensors.camera import CameraSensor
from repro.sensors.gps_imu import GpsImuSensor
from repro.sensors.lidar import LidarSensor
from repro.sensors.noise import _CHUNK_GROUPS
from repro.sim.actors import ActorKind
from repro.sim.scenarios import ScenarioVariation, build_scenario


@pytest.fixture
def ds1_snapshot():
    return build_scenario("DS-1", ScenarioVariation.nominal()).world.snapshot()


@pytest.fixture
def ds2_snapshot():
    return build_scenario("DS-2", ScenarioVariation.nominal()).world.snapshot()


class TestCameraSensor:
    def test_sees_lead_vehicle(self, ds1_snapshot):
        frame = CameraSensor().capture(ds1_snapshot)
        assert len(frame.objects) == 1
        assert frame.objects[0].kind is ActorKind.VEHICLE

    def test_distance_measured_from_front_bumper(self, ds1_snapshot):
        frame = CameraSensor().capture(ds1_snapshot)
        ego = ds1_snapshot.ego
        expected = 60.0 - ego.dimensions.length_m / 2.0
        assert frame.objects[0].distance_m == pytest.approx(expected)

    def test_range_limit(self, ds1_snapshot):
        assert len(CameraSensor(max_range_m=20.0).capture(ds1_snapshot).objects) == 0

    def test_objects_sorted_by_distance(self):
        snapshot = build_scenario("DS-5", ScenarioVariation.nominal()).world.snapshot()
        frame = CameraSensor().capture(snapshot)
        distances = [o.distance_m for o in frame.objects]
        assert distances == sorted(distances)

    def test_frame_manipulation_helpers(self, ds1_snapshot):
        frame = CameraSensor().capture(ds1_snapshot)
        target_id = frame.objects[0].actor_id
        assert frame.object_for_actor(target_id) is not None
        removed = frame.without_actor(target_id)
        assert removed.object_for_actor(target_id) is None
        shifted_obj = frame.objects[0]
        replaced = frame.with_replaced_object(shifted_obj)
        assert len(replaced.objects) == len(frame.objects)

    def test_pedestrian_visible_in_ds2(self, ds2_snapshot):
        frame = CameraSensor().capture(ds2_snapshot)
        assert any(o.kind is ActorKind.PEDESTRIAN for o in frame.objects)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            CameraSensor(max_range_m=0.0)


class TestLidarSensor:
    def test_vehicle_detected_at_60m(self, ds1_snapshot):
        scan = LidarSensor(rng=np.random.default_rng(0)).scan(ds1_snapshot)
        assert len(scan.detections) == 1
        assert scan.detections[0].kind is ActorKind.VEHICLE

    def test_pedestrian_range_shorter_than_vehicle_range(self):
        lidar = LidarSensor()
        assert lidar.effective_range(ActorKind.PEDESTRIAN) < lidar.effective_range(
            ActorKind.VEHICLE
        )

    def test_distant_pedestrian_not_detected(self, ds2_snapshot):
        # The DS-2 pedestrian starts ~85 m ahead, beyond the LiDAR pedestrian range.
        scan = LidarSensor(rng=np.random.default_rng(0)).scan(ds2_snapshot)
        assert scan.detection_for_actor(ds2_snapshot.actors[0].actor_id) is None

    def test_position_noise_is_small(self, ds1_snapshot):
        lidar = LidarSensor(position_noise_m=0.05, rng=np.random.default_rng(1))
        scan = lidar.scan(ds1_snapshot)
        expected = 60.0 - ds1_snapshot.ego.dimensions.length_m / 2.0
        assert scan.detections[0].distance_m == pytest.approx(expected, abs=0.5)

    def test_velocity_reported(self, ds1_snapshot):
        scan = LidarSensor(rng=np.random.default_rng(2)).scan(ds1_snapshot)
        assert scan.detections[0].velocity.x == pytest.approx(25.0 / 3.6, abs=0.01)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            LidarSensor(vehicle_range_m=0.0)
        with pytest.raises(ValueError):
            LidarSensor(position_noise_m=-1.0)


class TestGpsImuSensor:
    def test_speed_estimate_close_to_truth(self, ds1_snapshot):
        sensor = GpsImuSensor(rng=np.random.default_rng(3))
        estimate = sensor.measure(ds1_snapshot)
        assert estimate.speed_mps == pytest.approx(ds1_snapshot.ego.speed, abs=0.3)

    def test_acceleration_estimated_from_successive_measurements(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        sensor = GpsImuSensor(position_noise_m=0.0, speed_noise_mps=0.0, rng=np.random.default_rng(4))
        first = sensor.measure(scenario.world.snapshot())
        assert first.acceleration_mps2 == 0.0
        scenario.world.step(1.0 / 15.0, ego_acceleration_mps2=1.5)
        second = sensor.measure(scenario.world.snapshot())
        assert second.acceleration_mps2 == pytest.approx(1.5, abs=0.2)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            GpsImuSensor(position_noise_m=-0.1)


class TestBufferedNoise:
    """The LiDAR and GPS/IMU draw their noise a chunk at a time; the values
    are the generator's sequential ``normal`` draws, across a refill."""

    DRAWS = 2 * _CHUNK_GROUPS + 3  # measurements, crossing two refills

    def test_lidar_matches_sequential_draws(self, ds1_snapshot):
        lidar = LidarSensor(position_noise_m=0.08, rng=np.random.default_rng(5))
        reference = np.random.default_rng(5)
        ego, actor = ds1_snapshot.ego, ds1_snapshot.actors[0]
        distance = actor.x - (ego.x + ego.length / 2.0)
        lateral = actor.y - ego.y
        for _ in range(self.DRAWS):
            (row,) = lidar.scan_rows(ds1_snapshot)
            assert row[:2] == (distance + reference.normal(0.0, 0.08),
                               lateral + reference.normal(0.0, 0.08))

    @pytest.mark.parametrize("speed_noise", [0.05, 0.2], ids=["equal", "unequal"])
    def test_gps_matches_sequential_draws(self, ds1_snapshot, speed_noise):
        gps = GpsImuSensor(position_noise_m=0.05, speed_noise_mps=speed_noise,
                           rng=np.random.default_rng(6))
        reference = np.random.default_rng(6)
        ego = ds1_snapshot.ego
        for _ in range(self.DRAWS):
            pose = gps.measure(ds1_snapshot)
            assert pose.position.x == ego.x + reference.normal(0.0, 0.05)
            assert pose.position.y == ego.y + reference.normal(0.0, 0.05)
            assert pose.speed_mps == ego.vx + reference.normal(0.0, speed_noise)
