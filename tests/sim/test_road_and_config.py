"""Tests for the road/lane model and the simulation configuration."""

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.road import Lane, Road


class TestLane:
    def test_bounds(self):
        lane = Lane("ego", center_y=0.0, width=3.5)
        assert lane.y_min == -1.75 and lane.y_max == 1.75

    def test_contains_lateral_with_margin(self):
        lane = Lane("ego", 0.0, 3.5)
        assert lane.contains_lateral(1.9, margin=0.2)
        assert not lane.contains_lateral(1.9, margin=0.0)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            Lane("x", 0.0, width=0.0)


class TestRoad:
    def test_default_lanes_present(self, road):
        assert set(road.lanes) == {"ego", "opposite", "parking"}

    def test_ego_lane_centered_at_zero(self, road):
        assert road.ego_lane.center_y == 0.0

    def test_lane_lookup(self, road):
        assert road.lane("parking").center_y == pytest.approx(-3.5)

    def test_unknown_lane_rejected(self, road):
        with pytest.raises(KeyError):
            road.lane("bicycle")

    def test_lane_of_returns_containing_lane(self, road):
        assert road.lane_of(3.4).name == "opposite"
        assert road.lane_of(-3.4).name == "parking"
        assert road.lane_of(0.5).name == "ego"

    def test_lane_of_outside_road(self, road):
        assert road.lane_of(50.0) is None

    def test_in_ego_lane(self, road):
        assert road.in_ego_lane(0.0)
        assert not road.in_ego_lane(3.0)
        assert road.in_ego_lane(2.0, margin=0.5)


class TestSimulationConfig:
    def test_default_rates_match_paper(self):
        config = SimulationConfig()
        assert config.camera_rate_hz == 15.0
        assert config.lidar_rate_hz == 10.0

    def test_dt_is_camera_period(self):
        assert SimulationConfig().dt == pytest.approx(1.0 / 15.0)

    def test_max_steps(self):
        config = SimulationConfig(max_duration_s=2.0)
        assert config.max_steps == 30

    def test_lidar_due_frequency(self):
        config = SimulationConfig()
        # Over ten seconds of camera frames, the 10 Hz LiDAR completes ~100
        # scans (the very first frame may or may not coincide with a scan).
        due = [config.lidar_due(step) for step in range(150)]
        assert sum(due) in (99, 100)

    def test_lidar_due_negative_step_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig().lidar_due(-1)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(camera_rate_hz=0.0)

    def test_max_decel_must_cover_comfortable(self):
        with pytest.raises(ValueError):
            SimulationConfig(comfortable_decel_mps2=5.0, max_decel_mps2=4.0)

    def test_accident_threshold_default(self):
        assert SimulationConfig().halt_gap_m == 4.0

    @pytest.mark.parametrize("value", [0.0, -2.0])
    def test_non_positive_max_accel_rejected(self, value):
        # An ego that cannot accelerate only brakes: every run would read as
        # a hazard-free campaign.
        with pytest.raises(ValueError, match="max_accel_mps2 must be positive"):
            SimulationConfig(max_accel_mps2=value)

    @pytest.mark.parametrize("field", [
        "camera_rate_hz", "lidar_rate_hz", "max_duration_s", "halt_gap_m",
        "comfortable_decel_mps2", "max_decel_mps2", "max_accel_mps2",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SimulationConfig(**{field: value})
