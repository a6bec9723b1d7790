"""Tests for the multi-object tracker and the image-to-world transformation."""

import numpy as np
import pytest

from repro.geometry import CameraProjection
from repro.perception.mot import MultiObjectTracker, TrackerConfig
from repro.perception.transforms import ImageToWorldTransform
from repro.sim.actors import ActorKind


#: Fields of an estimate row (``ImageToWorldTransform.estimate_rows``).
DISTANCE, LATERAL, VELOCITY, LATERAL_VELOCITY = range(4)


def det(cx, cy=500.0, w=60.0, h=45.0, kind=ActorKind.VEHICLE, actor_id=1, confidence=0.9):
    """A detection row, as ``SimulatedDetector.detect_rows`` returns it."""
    return (cx, cy, w, h, kind, actor_id, confidence)


def det_of(bbox, kind=ActorKind.VEHICLE, actor_id=1):
    """The detection row of a box."""
    return det(bbox.cx, bbox.cy, bbox.width, bbox.height, kind, actor_id)


class TestObjectTrack:
    def test_initial_state(self):
        tracker = MultiObjectTracker()
        tracker.step([det(100)])
        (track,) = tracker.tracks.values()
        assert track.hits == 1
        assert track.consecutive_misses == 0
        assert not track.is_confirmed(min_hits=2)

    def test_update_confirms_and_resets_misses(self):
        tracker = MultiObjectTracker()
        tracker.step([det(100)])
        (track,) = tracker.tracks.values()
        tracker.step([])
        assert track.consecutive_misses == 1
        tracker.step([det(102)])
        assert track.hits == 2
        assert track.consecutive_misses == 0
        assert track.is_confirmed(min_hits=2)


class TestMultiObjectTracker:
    def test_single_object_keeps_one_track(self):
        tracker = MultiObjectTracker()
        for step in range(10):
            tracks = tracker.step([det(100 + 2 * step)])
        assert len(tracker.tracks) == 1
        assert len(tracks) == 1

    def test_track_id_stable_under_small_motion_and_noise(self):
        tracker = MultiObjectTracker()
        rng = np.random.default_rng(0)
        first_tracks = tracker.step([det(100)])
        tracker.step([det(100)])
        track_id = tracker.step([det(100)])[0].track_id
        for step in range(30):
            cx = 100 + 3 * step + rng.normal(0, 2.0)
            tracks = tracker.step([det(cx)])
            assert tracks[0].track_id == track_id
        assert first_tracks == [] or first_tracks[0].track_id == track_id

    def test_two_objects_tracked_separately(self):
        tracker = MultiObjectTracker()
        for step in range(8):
            tracks = tracker.step([det(100 + step, actor_id=1), det(800 - step, actor_id=2)])
        assert len(tracks) == 2
        assert {t.actor_id for t in tracks} == {1, 2}

    def test_track_retired_after_max_misses(self):
        config = TrackerConfig(max_consecutive_misses=3)
        tracker = MultiObjectTracker(config)
        for _ in range(3):
            tracker.step([det(100)])
        assert len(tracker.tracks) == 1
        for _ in range(config.max_consecutive_misses + 2):
            tracker.step([])
        assert len(tracker.tracks) == 0

    def test_unmatched_detection_spawns_new_track(self):
        tracker = MultiObjectTracker()
        tracker.step([det(100)])
        tracker.step([det(100), det(1500, actor_id=2)])
        assert len(tracker.tracks) == 2

    def test_confirmation_threshold(self):
        tracker = MultiObjectTracker(TrackerConfig(min_hits_to_confirm=3))
        assert tracker.step([det(100)]) == []
        assert tracker.step([det(101)]) == []
        assert len(tracker.step([det(102)])) == 1

    def test_size_inconsistent_detection_not_matched(self):
        tracker = MultiObjectTracker()
        for _ in range(3):
            tracker.step([det(100, w=60, h=45)])
        # A detection ten times larger at the same place is a different object.
        tracker.step([det(100, w=600, h=450, actor_id=2)])
        assert len(tracker.tracks) == 2

    def test_track_for_actor_lookup(self):
        tracker = MultiObjectTracker()
        tracker.step([det(100, actor_id=42)])
        assert tracker.track_for_actor(42) is not None
        assert tracker.track_for_actor(7) is None

    def test_reset(self):
        tracker = MultiObjectTracker()
        tracker.step([det(100)])
        tracker.reset()
        assert tracker.tracks == {}

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrackerConfig(min_iou_for_match=1.5)
        with pytest.raises(ValueError):
            TrackerConfig(max_consecutive_misses=0)
        with pytest.raises(ValueError):
            TrackerConfig(center_distance_gate=0.0)


class TestImageToWorldTransform:
    def _tracked_object_at(self, distance, lateral, kind=ActorKind.VEHICLE, steps=6, lateral_speed=0.0):
        """Build a track by feeding projected detections of a moving object."""
        projection = CameraProjection()
        transform = ImageToWorldTransform(projection=projection, frame_dt_s=1.0 / 15.0)
        tracker = MultiObjectTracker()
        height = 1.6 if kind is ActorKind.VEHICLE else 1.7
        estimates = []
        for step in range(steps):
            current_lateral = lateral + lateral_speed * step / 15.0
            bbox = projection.project(distance, current_lateral, 1.9, height)
            tracks = tracker.step([det_of(bbox, kind)])
            estimates = transform.estimate_rows(tracks)
        return estimates

    def test_recovers_distance_and_lateral(self):
        estimates = self._tracked_object_at(30.0, -2.0)
        assert len(estimates) == 1
        assert estimates[0][DISTANCE] == pytest.approx(30.0, rel=0.05)
        assert estimates[0][LATERAL] == pytest.approx(-2.0, rel=0.1)

    def test_lateral_velocity_estimated(self):
        estimates = self._tracked_object_at(30.0, -3.0, lateral_speed=1.5, steps=30)
        assert estimates[0][LATERAL_VELOCITY] == pytest.approx(1.5, abs=0.7)

    def test_stationary_object_has_small_lateral_velocity(self):
        estimates = self._tracked_object_at(30.0, -3.0, steps=30)
        assert abs(estimates[0][LATERAL_VELOCITY]) < 0.3

    def test_estimates_sorted_by_distance(self):
        projection = CameraProjection()
        transform = ImageToWorldTransform(projection=projection)
        tracker = MultiObjectTracker()
        detections = [
            det_of(projection.project(50.0, 0.0, 1.9, 1.6), actor_id=1),
            det_of(projection.project(20.0, 3.0, 1.9, 1.6), actor_id=2),
        ]
        for _ in range(4):
            tracks = tracker.step(detections)
        estimates = transform.estimate_rows(tracks)
        distances = [e[DISTANCE] for e in estimates]
        assert distances == sorted(distances)

    def test_history_dropped_for_dead_tracks(self):
        transform = ImageToWorldTransform()
        tracker = MultiObjectTracker()
        for _ in range(4):
            tracks = tracker.step([det(960)])
        transform.estimate_rows(tracks)
        assert transform._history
        transform.estimate_rows([])
        assert not transform._history

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ImageToWorldTransform(frame_dt_s=0.0)
        with pytest.raises(ValueError):
            ImageToWorldTransform(velocity_smoothing=0.0)
