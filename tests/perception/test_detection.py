"""Tests for the simulated (YOLOv3 stand-in) object detector."""

import numpy as np
import pytest

from repro.perception.detection import (
    DetectorConfig,
    DetectorDegradation,
    DetectorNoiseModel,
    SimulatedDetector,
)
from repro.sensors.camera import CameraSensor
from repro.sim.actors import ActorKind
from repro.sim.scenarios import ScenarioVariation, build_scenario


#: Fields of a camera row (``CameraSensor.render_rows``) and of a detection
#: row (``SimulatedDetector.detect_rows``).
CAM_ACTOR_ID, CAM_CX, CAM_W = 2, 4, 6
DET_CX, DET_KIND, DET_ACTOR_ID = 0, 4, 5


def capture_ds1_frame():
    scenario = build_scenario("DS-1", ScenarioVariation.nominal())
    return CameraSensor().render_rows(scenario.world)


class TestNoiseModel:
    def test_defaults_follow_paper_ordering(self):
        vehicle = DetectorNoiseModel.vehicle_default()
        pedestrian = DetectorNoiseModel.pedestrian_default()
        # Pedestrian centre noise is wider; vehicle misdetection bursts are longer
        # (paper Fig. 5: 99th percentiles ~31 frames vs ~59 frames).
        assert pedestrian.center_noise_sigma_x > vehicle.center_noise_sigma_x
        assert vehicle.misdetection_burst_p99_frames > pedestrian.misdetection_burst_p99_frames

    def test_burst_rate_consistent_with_p99(self):
        model = DetectorNoiseModel.vehicle_default()
        implied_p99 = 1.0 + np.log(100.0) / model.burst_rate
        assert implied_p99 == pytest.approx(model.misdetection_burst_p99_frames, rel=1e-6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DetectorNoiseModel(0, -1, 0, 0.1, 0.01, 30)
        with pytest.raises(ValueError):
            DetectorNoiseModel(0, 0.1, 0, 0.1, 1.5, 30)

    def test_config_lookup_by_kind(self):
        config = DetectorConfig()
        assert config.noise_for(ActorKind.VEHICLE) is config.vehicle_noise
        assert config.noise_for(ActorKind.PEDESTRIAN) is config.pedestrian_noise


class TestDetectorDegradation:
    @pytest.mark.parametrize("field", ["sigma_scale", "misdetection_scale", "burst_scale",
                                       "range_scale"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_non_positive_or_non_finite_factor_rejected(self, field, value):
        # A NaN sigma_scale or an infinite range_scale once ran whole
        # campaigns with ordinary-looking outcomes and serialized as NaN.
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got "):
            DetectorDegradation(**{field: value})


class TestSimulatedDetector:
    def test_detects_visible_vehicle(self):
        detector = SimulatedDetector(rng=np.random.default_rng(0))
        frame = capture_ds1_frame()
        detections = detector.detect_rows(frame)
        assert len(detections) <= 1
        # Over several frames, the vehicle is detected most of the time.
        hits = sum(bool(detector.detect_rows(frame)) for _ in range(50))
        assert hits > 40

    def test_detection_preserves_class_and_actor_id(self):
        detector = SimulatedDetector(rng=np.random.default_rng(1))
        frame = capture_ds1_frame()
        for _ in range(20):
            detections = detector.detect_rows(frame)
            if detections:
                assert detections[0][DET_KIND] is ActorKind.VEHICLE
                assert detections[0][DET_ACTOR_ID] == frame[0][CAM_ACTOR_ID]
                break
        else:
            pytest.fail("vehicle never detected in 20 frames")

    def test_center_noise_is_zero_mean_ish(self):
        detector = SimulatedDetector(rng=np.random.default_rng(2))
        frame = capture_ds1_frame()
        truth = frame[0]
        offsets = []
        for _ in range(400):
            for detection in detector.detect_rows(frame):
                offsets.append((detection[DET_CX] - truth[CAM_CX]) / truth[CAM_W])
        assert abs(np.mean(offsets)) < 0.1
        assert np.std(offsets) > 0.01

    def test_misdetections_come_in_continuous_bursts(self):
        config = DetectorConfig(
            vehicle_noise=DetectorNoiseModel(
                center_noise_mu_x=0.0,
                center_noise_sigma_x=0.05,
                center_noise_mu_y=0.0,
                center_noise_sigma_y=0.05,
                misdetection_start_probability=0.05,
                misdetection_burst_p99_frames=40.0,
            )
        )
        detector = SimulatedDetector(config, rng=np.random.default_rng(3))
        frame = capture_ds1_frame()
        detected_sequence = [bool(detector.detect_rows(frame)) for _ in range(800)]
        # Compute lengths of missed runs; with the burst model, mean run length
        # should exceed 1 frame by a clear margin.
        runs, current = [], 0
        for detected in detected_sequence:
            if detected:
                if current:
                    runs.append(current)
                current = 0
            else:
                current += 1
        assert runs, "expected at least one misdetection burst"
        assert np.mean(runs) > 1.5

    def test_far_small_objects_not_detected(self):
        detector = SimulatedDetector(DetectorConfig(min_bbox_height_px=10_000), rng=np.random.default_rng(4))
        frame = capture_ds1_frame()
        assert detector.detect_rows(frame) == []

    def test_reset_clears_burst_state(self):
        detector = SimulatedDetector(rng=np.random.default_rng(5))
        frame = capture_ds1_frame()
        for _ in range(50):
            detector.detect_rows(frame)
        detector.reset()
        assert detector._burst_remaining == {}

    def test_burst_state_garbage_collected_when_object_leaves(self):
        detector = SimulatedDetector(rng=np.random.default_rng(6))
        frame = capture_ds1_frame()
        for _ in range(20):
            detector.detect_rows(frame)
        empty = [row for row in frame if row[CAM_ACTOR_ID] != frame[0][CAM_ACTOR_ID]]
        detector.detect_rows(empty)
        assert detector._burst_remaining == {}
