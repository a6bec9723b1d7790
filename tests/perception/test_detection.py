"""Tests for the simulated (YOLOv3 stand-in) object detector."""

import dataclasses

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

_VEHICLE = ActorKind.VEHICLE


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


class TestNonFiniteParametersRejected:
    FIELDS = [field.name for field in dataclasses.fields(DetectorNoiseModel)]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_noise_model_field_must_be_finite(self, field, value):
        # NaN passed the sign and percentile checks; an infinite burst
        # percentile made burst_rate 0.0 and raised ZeroDivisionError only
        # at the first burst, inside detect_rows.
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            dataclasses.replace(DetectorNoiseModel.vehicle_default(), **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_min_bbox_height_must_be_non_negative_and_finite(self, value):
        with pytest.raises(ValueError, match="^min_bbox_height_px must be non-negative and finite"):
            DetectorConfig(min_bbox_height_px=value)

    def test_zero_min_bbox_height_accepted(self):
        assert DetectorConfig(min_bbox_height_px=0.0).min_bbox_height_px == 0.0


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


class _FourNormalDetector(SimulatedDetector):
    """The detector as it drew each reported object's noise: four
    ``Generator.normal`` calls, the reference ``detect_rows`` must equal."""

    def detect_rows(self, objects):
        config = self.config
        rng = self._rng
        burst = self._burst_remaining
        detections = []
        visible = set()
        for _distance, _lateral, actor_id, kind, cx, cy, w, h, _oh, _ow in objects:
            visible.add(actor_id)
            if h < config.min_bbox_height_px:
                continue
            remaining = burst.get(actor_id, 0)
            if remaining > 0:
                burst[actor_id] = remaining - 1
                continue
            noise = config.vehicle_noise if kind is _VEHICLE else config.pedestrian_noise
            if rng.random() < noise.misdetection_start_probability:
                burst_length = 1 + int(rng.exponential(1.0 / noise.burst_rate))
                burst[actor_id] = burst_length - 1 if burst_length > 1 else 0
                continue
            dx = rng.normal(noise.center_noise_mu_x, noise.center_noise_sigma_x) * w
            dy = rng.normal(noise.center_noise_mu_y, noise.center_noise_sigma_y) * h
            size_jitter = rng.normal(1.0, 0.03)
            size_jitter = 0.85 if 0.85 > size_jitter else 1.15 if size_jitter > 1.15 else size_jitter
            detections.append((float(cx + dx), float(cy + dy), float(w * size_jitter),
                               float(h * size_jitter), kind, actor_id,
                               rng.normal(0.85, 0.08)))
        for actor_id in [aid for aid in burst if aid not in visible]:
            del burst[actor_id]
        return detections


def _exact(rows):
    """Rows with every float as its hex form, so -0.0 and 0.0 differ."""
    return [tuple(value.hex() if type(value) is float else value for value in row)
            for row in rows]


def _mixed_frames(seed, n_frames=300):
    """Camera rows of up to five vehicles and pedestrians that drift, enter
    and leave the frame; some boxes fall below the default minimum height."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n_frames):
        rows = []
        for actor_id in range(1, 6):
            if rng.random() < 0.2:
                continue
            kind = ActorKind.VEHICLE if actor_id % 2 else ActorKind.PEDESTRIAN
            w, h = rng.uniform(4.0, 300.0, size=2).tolist()
            cx, cy = rng.uniform(0.0, 1920.0), rng.uniform(0.0, 1080.0)
            rows.append((rng.uniform(5.0, 80.0), rng.uniform(-6.0, 6.0), actor_id, kind,
                         cx, cy, w, h, 1.7, 1.9))
        frames.append(rows)
    return frames


def _scenario_frames(scenario_id, n_frames=150):
    scenario = build_scenario(scenario_id, ScenarioVariation.nominal())
    camera = CameraSensor()
    frames = []
    for _ in range(n_frames):
        frames.append(camera.render_rows(scenario.world))
        scenario.world.step(1.0 / 15.0, 0.0)
    return frames


DEGRADED = DetectorDegradation(sigma_scale=2.5, misdetection_scale=20.0, burst_scale=0.5,
                               range_scale=1.5).apply()
BURSTY = DetectorConfig(
    vehicle_noise=DetectorNoiseModel(0.02, 0.12, 0.03, 0.10, 0.3, 6.0),
    pedestrian_noise=DetectorNoiseModel(0.04, 0.28, 0.03, 0.12, 0.4, 3.0),
)


class TestDrawsMatchFourNormalCalls:
    """One standard_normal(4) draw per reported object gives exactly the
    rows, burst state and generator state of four Generator.normal calls."""

    @pytest.mark.parametrize("config", [None, DEGRADED, BURSTY],
                             ids=["default", "degraded", "bursty"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_classes(self, config, seed):
        detector = SimulatedDetector(config, rng=np.random.default_rng(seed))
        reference = _FourNormalDetector(config, rng=np.random.default_rng(seed))
        bursts = 0
        kinds = set()
        for frame in _mixed_frames(seed):
            rows = detector.detect_rows(frame)
            assert _exact(rows) == _exact(reference.detect_rows(frame))
            assert detector._burst_remaining == reference._burst_remaining
            bursts += sum(1 for remaining in detector._burst_remaining.values() if remaining)
            kinds.update(row[DET_KIND] for row in rows)
        assert detector._rng.bit_generator.state == reference._rng.bit_generator.state
        assert kinds == {ActorKind.VEHICLE, ActorKind.PEDESTRIAN}
        assert bursts > 0

    @pytest.mark.parametrize("scenario_id", ["DS-2", "DS-5"])
    def test_scenario_frames(self, scenario_id):
        frames = _scenario_frames(scenario_id)
        for config in (None, DEGRADED, BURSTY):
            detector = SimulatedDetector(config, rng=np.random.default_rng(7))
            reference = _FourNormalDetector(config, rng=np.random.default_rng(7))
            for frame in frames:
                assert _exact(detector.detect_rows(frame)) == _exact(reference.detect_rows(frame))
            assert detector._rng.bit_generator.state == reference._rng.bit_generator.state
