"""Tests for the multi-object tracker and the image-to-world transformation."""

import numpy as np
import pytest

from repro.geometry import CameraProjection
from repro.perception.hungarian import hungarian_assignment
from repro.perception.mot import MultiObjectTracker, TrackerConfig
from repro.perception.tracker import ObjectTrack
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

    @pytest.mark.parametrize("field", [
        "min_iou_for_match", "center_distance_gate", "max_consecutive_misses",
        "min_hits_to_confirm",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_config_field_rejected(self, field, value):
        # The gate, miss and hit checks compare with <= and <, which NaN
        # passes: a NaN or infinite gate accepted every pair, an infinite
        # miss limit never retired a track, a NaN hit count confirmed none.
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            TrackerConfig(**{field: value})


def _reference_overlap(track, geom):
    pw = track.pred_w
    ph = track.pred_h
    px0 = track.pred_cx - pw / 2.0
    px1 = track.pred_cx + pw / 2.0
    py0 = track.pred_cy - ph / 2.0
    py1 = track.pred_cy + ph / 2.0
    dx0, dx1, dy0, dy1 = geom[0], geom[1], geom[2], geom[3]
    overlap_w = (px1 if px1 < dx1 else dx1) - (px0 if px0 > dx0 else dx0)
    overlap_h = (py1 if py1 < dy1 else dy1) - (py0 if py0 > dy0 else dy0)
    inter = 0.0 if overlap_w <= 0.0 or overlap_h <= 0.0 else overlap_w * overlap_h
    union = pw * ph + geom[4] - inter
    return 0.0 if union <= 0.0 else inter / union


def _reference_distance(track, geom):
    mean_width = (track.pred_w + geom[7]) / 2.0
    if mean_width < 1.0:
        mean_width = 1.0
    return np.hypot(track.pred_cx - geom[5], track.pred_cy - geom[6]) / mean_width


def _reference_pair_cost(track, geom):
    return (1.0 - _reference_overlap(track, geom)) + 0.05 * min(_reference_distance(track, geom), 10.0)


class _PerPairTracker(MultiObjectTracker):
    """The association as it costed one pair at a time (a scalar ``np.hypot``
    per pair, an ``np.empty`` matrix for the solver): the reference
    ``track_rows`` must equal."""

    def track_rows(self, detections, upd_rows, upd_z):
        config = self.config
        tracks = self.tracks
        track_list = list(tracks.values())
        n_tracks = len(track_list)
        n_dets = len(detections)
        matched_tracks = []
        matched_det_idx = []
        if n_tracks and n_dets:
            det_geom = []
            for det in detections:
                dcx, dcy, dw, dh = det[0], det[1], det[2], det[3]
                det_geom.append((dcx - dw / 2.0, dcx + dw / 2.0, dcy - dh / 2.0, dcy + dh / 2.0,
                                 dw * dh, dcx, dcy, dw))
            if n_tracks == 1 and n_dets == 1:
                pairs = ((0, 0),)
            elif n_tracks == 1 or n_dets == 1:
                costs = [_reference_pair_cost(track, geom)
                         for track in track_list for geom in det_geom]
                best = min(range(len(costs)), key=costs.__getitem__)
                pairs = ((0, best),) if n_tracks == 1 else ((best, 0),)
            else:
                cost = np.empty((n_tracks, n_dets))
                for r, track in enumerate(track_list):
                    for c in range(n_dets):
                        cost[r, c] = _reference_pair_cost(track, det_geom[c])
                pairs = hungarian_assignment(cost)
            for r, c in pairs:
                track = track_list[r]
                geom = det_geom[c]
                if not 0.4 <= geom[7] / track.pred_w <= 2.5:
                    continue
                if (_reference_overlap(track, geom) < config.min_iou_for_match
                        and _reference_distance(track, geom) > config.center_distance_gate):
                    continue
                matched_tracks.append(track)
                matched_det_idx.append(c)
        for track in track_list:
            track.consecutive_misses += 1
        for track, c in zip(matched_tracks, matched_det_idx):
            det = detections[c]
            track.kind = det[4]
            track.actor_id = det[5]
            track.hits += 1
            track.consecutive_misses = 0
            upd_rows.append(track.row)
            upd_z.append((det[0], det[1], det[2], det[3]))
        matched_cols = set(matched_det_idx)
        for c, det in enumerate(detections):
            if c in matched_cols:
                continue
            tid = next(self._next_track_id)
            tracks[tid] = ObjectTrack(tid, det[4], det[5], self.pool, det[0], det[1], det[2], det[3])
        stale = []
        observed = []
        for tid, track in tracks.items():
            if track.consecutive_misses > config.max_consecutive_misses:
                stale.append(tid)
            elif track.hits >= config.min_hits_to_confirm and track.consecutive_misses <= 1:
                observed.append(track)
        for tid in stale:
            self.pool.free(tracks.pop(tid).row)
        self.observed = observed


def _crowded_frames(seed):
    """Detection rows of one to four moving objects with noise, dropouts,
    spurious boxes, size jumps and far jumps, so frames of every shape
    (1x1, 1xN, Nx1, NxM) occur, with pairs that fail acceptance.  Each
    phase shows a number of objects; empty frames between phases retire
    every track."""
    rng = np.random.default_rng(seed)
    frames = []
    for n_objects in (1, 2, 1, 3, 4, 1, 2):
        objects = [[rng.uniform(200, 1700), rng.uniform(300, 800), rng.uniform(-6, 6),
                    rng.uniform(-2, 2), rng.uniform(20, 120)] for _ in range(n_objects)]
        for _ in range(60):
            rows = []
            for actor_id, obj in enumerate(objects, start=1):
                obj[0] += obj[2]
                obj[1] += obj[3]
                if rng.random() < 0.02:
                    obj[0] = rng.uniform(200, 1700)
                if rng.random() < 0.15:
                    continue
                w = obj[4] * (3.0 if rng.random() < 0.03 else 1.0)
                rows.append(det(obj[0] + rng.normal(0, 3.0), obj[1] + rng.normal(0, 2.0), w,
                                0.75 * w, ActorKind.VEHICLE, actor_id))
            if rng.random() < 0.08:
                rows.append(det(rng.uniform(0, 1920), rng.uniform(0, 1080), rng.uniform(5, 80),
                                rng.uniform(5, 80), ActorKind.PEDESTRIAN, 99))
            rng.shuffle(rows)
            frames.append(rows)
        frames.extend([] for _ in range(20))
    return frames


def _track_state(tracker):
    return [(tid, t.row, t.hits, t.consecutive_misses, t.actor_id, t.pred_cx.hex(), t.pred_w.hex())
            for tid, t in tracker.tracks.items()]


class TestAssociationMatchesPerPairReference:
    """Costing a frame's pairs as Python floats (one vectorised np.hypot,
    list costs into the solver) associates exactly as per-pair costs did."""

    @pytest.mark.parametrize("config", [TrackerConfig(), TrackerConfig(center_distance_gate=40.0)],
                             ids=["default", "wide-gate"])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_updates_tracks_and_observed(self, seed, config):
        # The wide gate accepts far pairs, so the distance term and its
        # clamp decide matches as often as the IoU does.
        tracker = MultiObjectTracker(config)
        reference = _PerPairTracker(config)
        shapes = set()
        for frame in _crowded_frames(seed):
            n_tracks = len(tracker.tracks)
            shapes.add(("1" if n_tracks == 1 else "N" if n_tracks else "0")
                       + ("1" if len(frame) == 1 else "N" if frame else "0"))
            results = []
            for trk in (tracker, reference):
                trk.pool.predict_tracks((trk,))
                rows, z = [], []
                trk.track_rows(frame, rows, z)
                trk.pool.update_rows(rows, z)
                results.append((rows, [tuple(v.hex() for v in m) for m in z],
                                [t.track_id for t in trk.observed], _track_state(trk)))
            assert results[0] == results[1]
            assert tracker.pool.states.tobytes() == reference.pool.states.tobytes()
        assert {"11", "1N", "N1", "NN"} <= shapes

    def test_ties_go_to_the_first_candidate_and_distance_clamps_at_ten_widths(self):
        config = TrackerConfig(center_distance_gate=100.0)
        for frame, first_wins in (
            # 1xN: two identical boxes cost the same; the first one wins.
            ([det(500.0, actor_id=2), det(500.0, actor_id=3)], 2),
            # 1xN: 12 widths away clamps to 10 and loses to 9.5 widths.
            ([det(500.0 + 12 * 60.0, actor_id=2), det(500.0 + 9.5 * 60.0, actor_id=3)], 3),
            # 1xN: 12 and 15 widths both clamp to 10: a tie, so the first.
            ([det(500.0 + 12 * 60.0, actor_id=2), det(500.0 + 15 * 60.0, actor_id=3)], 2),
            # 1xN: IoU against distance: 13.2 px sideways (cost 0.37166)
            # beats 10 px down (0.37197) by the 0.05 distance weight.
            ([det(513.2, actor_id=2), det(500.0, cy=510.0, actor_id=3)], 2),
        ):
            tracker = MultiObjectTracker(config)
            reference = _PerPairTracker(config)
            for trk in (tracker, reference):
                trk.step([det(500.0, actor_id=1)])
                trk.step(frame)
            assert _track_state(tracker) == _track_state(reference)
            assert tracker.tracks[1].actor_id == first_wins
        # Nx1: two identical tracks, one detection: the first track wins.
        tracker = MultiObjectTracker(config)
        reference = _PerPairTracker(config)
        for trk in (tracker, reference):
            trk.step([det(500.0, actor_id=1), det(500.0, actor_id=2)])
            trk.step([det(500.0, actor_id=3)])
        assert _track_state(tracker) == _track_state(reference)
        assert [t.actor_id for t in tracker.tracks.values()] == [3, 2]

    def test_distance_gate_accepts_a_non_overlapping_single_pair(self):
        # A 1x1 frame computes its distance only when the IoU falls short.
        config = TrackerConfig(min_iou_for_match=0.9, center_distance_gate=1.5)
        for far in (False, True):
            tracker = MultiObjectTracker(config)
            reference = _PerPairTracker(config)
            for cx in (100.0, 103.0, 300.0 if far else 140.0):
                for trk in (tracker, reference):
                    trk.step([det(cx)])
            assert list(tracker.tracks) == list(reference.tracks)
            assert len(tracker.tracks) == (2 if far else 1)


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
