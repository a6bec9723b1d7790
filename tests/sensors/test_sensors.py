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
def ds1_world():
    return build_scenario("DS-1", ScenarioVariation.nominal()).world


@pytest.fixture
def ds2_world():
    return build_scenario("DS-2", ScenarioVariation.nominal()).world


#: Fields of a camera row (``CameraSensor.render_rows``).
(CAM_DISTANCE, CAM_LATERAL, CAM_ACTOR_ID, CAM_KIND, CAM_CX, CAM_CY, CAM_W, CAM_H,
 CAM_OBJECT_H, CAM_OBJECT_W) = range(10)
#: Fields of a LiDAR row (``LidarSensor.scan_rows``).
LIDAR_DISTANCE, LIDAR_LATERAL, LIDAR_ACTOR_ID, LIDAR_KIND, LIDAR_VX = range(5)


class TestCameraSensor:
    def test_sees_lead_vehicle(self, ds1_world):
        rows = CameraSensor().render_rows(ds1_world)
        assert len(rows) == 1
        assert rows[0][CAM_KIND] is ActorKind.VEHICLE

    def test_distance_measured_from_front_bumper(self, ds1_world):
        rows = CameraSensor().render_rows(ds1_world)
        ego = ds1_world.ego
        expected = 60.0 - ego.dimensions.length_m / 2.0
        assert rows[0][CAM_DISTANCE] == pytest.approx(expected)

    def test_range_limit(self, ds1_world):
        assert len(CameraSensor(max_range_m=20.0).render_rows(ds1_world)) == 0

    def test_objects_sorted_by_distance(self):
        world = build_scenario("DS-5", ScenarioVariation.nominal()).world
        rows = CameraSensor().render_rows(world)
        distances = [row[CAM_DISTANCE] for row in rows]
        assert distances == sorted(distances)

    def test_pedestrian_visible_in_ds2(self, ds2_world):
        rows = CameraSensor().render_rows(ds2_world)
        assert any(row[CAM_KIND] is ActorKind.PEDESTRIAN for row in rows)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            CameraSensor(max_range_m=0.0)


class TestLidarSensor:
    def test_vehicle_detected_at_60m(self, ds1_world):
        rows = LidarSensor(rng=np.random.default_rng(0)).scan_rows(ds1_world)
        assert len(rows) == 1
        assert rows[0][LIDAR_KIND] is ActorKind.VEHICLE

    def test_pedestrian_range_shorter_than_vehicle_range(self):
        lidar = LidarSensor()
        assert lidar.effective_range(ActorKind.PEDESTRIAN) < lidar.effective_range(
            ActorKind.VEHICLE
        )

    def test_distant_pedestrian_not_detected(self, ds2_world):
        # The DS-2 pedestrian starts ~85 m ahead, beyond the LiDAR pedestrian range.
        rows = LidarSensor(rng=np.random.default_rng(0)).scan_rows(ds2_world)
        actor_id = ds2_world.actors[0].actor_id
        assert not any(row[LIDAR_ACTOR_ID] == actor_id for row in rows)

    def test_position_noise_is_small(self, ds1_world):
        lidar = LidarSensor(position_noise_m=0.05, rng=np.random.default_rng(1))
        rows = lidar.scan_rows(ds1_world)
        expected = 60.0 - ds1_world.ego.dimensions.length_m / 2.0
        assert rows[0][LIDAR_DISTANCE] == pytest.approx(expected, abs=0.5)

    def test_velocity_reported(self, ds1_world):
        rows = LidarSensor(rng=np.random.default_rng(2)).scan_rows(ds1_world)
        assert rows[0][LIDAR_VX] == pytest.approx(25.0 / 3.6, abs=0.01)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            LidarSensor(vehicle_range_m=0.0)
        with pytest.raises(ValueError):
            LidarSensor(position_noise_m=-1.0)


class TestGpsImuSensor:
    def test_speed_estimate_close_to_truth(self, ds1_world):
        sensor = GpsImuSensor(rng=np.random.default_rng(3))
        _x, _y, speed = sensor.read(ds1_world)
        assert speed == pytest.approx(ds1_world.ego.speed_mps, abs=0.3)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            GpsImuSensor(position_noise_m=-0.1)


class TestBufferedNoise:
    """The LiDAR and GPS/IMU draw their noise a chunk at a time; the values
    are the generator's sequential ``normal`` draws, across a refill."""

    DRAWS = 2 * _CHUNK_GROUPS + 3  # measurements, crossing two refills

    def test_lidar_matches_sequential_draws(self, ds1_world):
        lidar = LidarSensor(position_noise_m=0.08, rng=np.random.default_rng(5))
        reference = np.random.default_rng(5)
        ego, actor = ds1_world.ego, ds1_world.actors[0]
        distance = actor.x - (ego.x + ego.length / 2.0)
        lateral = actor.y - ego.y
        for _ in range(self.DRAWS):
            (row,) = lidar.scan_rows(ds1_world)
            assert row[:2] == (distance + reference.normal(0.0, 0.08),
                               lateral + reference.normal(0.0, 0.08))

    @pytest.mark.parametrize("speed_noise", [0.05, 0.2], ids=["equal", "unequal"])
    def test_gps_matches_sequential_draws(self, ds1_world, speed_noise):
        gps = GpsImuSensor(position_noise_m=0.05, speed_noise_mps=speed_noise,
                           rng=np.random.default_rng(6))
        reference = np.random.default_rng(6)
        ego = ds1_world.ego
        for _ in range(self.DRAWS):
            x, y, speed = gps.read(ds1_world)
            assert x == ego.x + reference.normal(0.0, 0.05)
            assert y == ego.y + reference.normal(0.0, 0.05)
            assert speed == ego.vx + reference.normal(0.0, speed_noise)
