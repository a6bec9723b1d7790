"""Tests for the Kalman filters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import BoundingBox
from repro.perception.kalman import H, P0, F, KalmanFilter, KalmanPool, Q, R
from repro.perception.mot import MultiObjectTracker
from repro.sim.actors import ActorKind


def make_1d_constant_velocity_filter(q=0.01, r=1.0):
    return KalmanFilter(
        transition=np.array([[1.0, 1.0], [0.0, 1.0]]),
        observation=np.array([[1.0, 0.0]]),
        process_noise=np.eye(2) * q,
        measurement_noise=np.array([[r]]),
        initial_state=np.array([0.0, 0.0]),
        initial_covariance=np.eye(2) * 10.0,
    )


class TestKalmanFilter:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            KalmanFilter(
                transition=np.eye(3),
                observation=np.eye(2),
                process_noise=np.eye(2),
                measurement_noise=np.eye(2),
                initial_state=np.zeros(2),
                initial_covariance=np.eye(2),
            )

    def test_tracks_constant_velocity_target(self):
        kf = make_1d_constant_velocity_filter()
        rng = np.random.default_rng(0)
        true_position, true_velocity = 0.0, 2.0
        for _ in range(60):
            true_position += true_velocity
            kf.predict()
            kf.update(np.array([true_position + rng.normal(0, 1.0)]))
        assert kf.state[0] == pytest.approx(true_position, abs=2.0)
        assert kf.state[1] == pytest.approx(true_velocity, abs=0.4)

    def test_update_reduces_position_uncertainty(self):
        kf = make_1d_constant_velocity_filter()
        kf.predict()
        before = kf.covariance[0, 0]
        kf.update(np.array([0.0]))
        assert kf.covariance[0, 0] < before

    def test_predict_increases_uncertainty(self):
        kf = make_1d_constant_velocity_filter()
        kf.update(np.array([0.0]))
        after_update = kf.covariance[0, 0]
        kf.predict()
        assert kf.covariance[0, 0] > after_update

    def test_filtered_estimate_smoother_than_raw_measurements(self):
        kf = make_1d_constant_velocity_filter(q=0.001, r=4.0)
        rng = np.random.default_rng(1)
        errors_raw, errors_filtered = [], []
        true_position = 0.0
        for _ in range(200):
            true_position += 1.0
            measurement = true_position + rng.normal(0, 2.0)
            kf.predict()
            kf.update(np.array([measurement]))
            errors_raw.append(abs(measurement - true_position))
            errors_filtered.append(abs(kf.state[0] - true_position))
        assert np.mean(errors_filtered[50:]) < np.mean(errors_raw[50:])

    def test_covariance_stays_symmetric_psd_over_long_track(self):
        # Joseph-form regression: the textbook (I-KH)P covariance update can
        # drift off-symmetric/PSD under floating-point error over long tracks.
        kf = make_1d_constant_velocity_filter(q=1e-4, r=0.5)
        rng = np.random.default_rng(1)
        for step in range(1, 1001):
            kf.predict()
            kf.update(np.array([2.0 * step + rng.normal(0, 0.7)]))
            assert np.array_equal(kf.covariance, kf.covariance.T), step
            assert np.linalg.eigvalsh(kf.covariance).min() >= -1e-12, step

    def test_update_uses_no_explicit_inverse(self, monkeypatch):
        # np.linalg.solve is better conditioned than forming S^-1; make sure
        # the implementation never regresses to the explicit inverse.
        def forbidden(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("KalmanFilter.update must not call np.linalg.inv")

        monkeypatch.setattr(np.linalg, "inv", forbidden)
        kf = make_1d_constant_velocity_filter()
        kf.predict()
        kf.update(np.array([1.0]))

    def test_predicted_measurement_matches_observation_model(self):
        kf = make_1d_constant_velocity_filter()
        kf.update(np.array([3.0]))
        assert kf.predicted_measurement()[0] == pytest.approx(kf.state[0])


def _pooled_track(box):
    """A tracker holding one track started on ``box``."""
    tracker = MultiObjectTracker()
    # A detection row (cx, cy, w, h, kind, actor_id, confidence).
    tracker.step([(box.cx, box.cy, box.width, box.height, ActorKind.VEHICLE, 1, 0.9)])
    (track,) = tracker.tracks.values()
    return tracker, track


def _predict(tracker):
    tracker.pool.predict_tracks((tracker,))


def _update(tracker, track, box):
    tracker.pool.update_rows([track.row], [(box.cx, box.cy, box.width, box.height)])


def _velocity(tracker, track):
    vx, vy = tracker.pool.states[track.row, 4:].tolist()
    return vx, vy


class TestPooledBoxFilter:
    """The constant-velocity box filter every track runs, on tracks built by
    a MultiObjectTracker (predict and update driven through its pool)."""

    def test_initial_state_matches_first_box(self):
        _, track = _pooled_track(BoundingBox(100, 50, 40, 30))
        current = track.bbox
        assert current.cx == pytest.approx(100)
        assert current.height == pytest.approx(30)

    def test_tracks_moving_box(self):
        tracker, track = _pooled_track(BoundingBox(100, 50, 40, 30))
        for step in range(1, 40):
            _predict(tracker)
            _update(tracker, track, BoundingBox(100 + 3 * step, 50, 40, 30))
        vx, vy = _velocity(tracker, track)
        assert vx == pytest.approx(3.0, abs=0.5)
        assert abs(vy) < 0.5

    def test_prediction_extrapolates_motion(self):
        tracker, track = _pooled_track(BoundingBox(0, 0, 10, 10))
        for step in range(1, 30):
            _predict(tracker)
            _update(tracker, track, BoundingBox(2.0 * step, 0, 10, 10))
        current = track.bbox
        _predict(tracker)
        assert track.pred_cx > current.cx - 1e-6

    def test_box_dimensions_never_collapse(self):
        tracker, track = _pooled_track(BoundingBox(0, 0, 5, 5))
        for _ in range(10):
            _predict(tracker)
            _update(tracker, track, BoundingBox(0, 0, 0.5, 0.5))
        box = track.bbox
        assert box.width >= 1.0 and box.height >= 1.0

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_velocity_estimate_matches_constant_motion(self, vx, vy):
        tracker, track = _pooled_track(BoundingBox(500, 500, 60, 60))
        for step in range(1, 50):
            _predict(tracker)
            _update(tracker, track, BoundingBox(500 + vx * step, 500 + vy * step, 60, 60))
        estimated_vx, estimated_vy = _velocity(tracker, track)
        assert estimated_vx == pytest.approx(vx, abs=0.4)
        assert estimated_vy == pytest.approx(vy, abs=0.4)


class TestKalmanPoolMatchesReference:
    def test_rows_equal_one_reference_filter_each(self):
        """Stacked predicts and partial updates over rows of different ages,
        across a pool growth, leave every row's state and covariance exactly
        equal to a KalmanFilter of its own built from the same matrices."""
        rng = np.random.default_rng(11)
        pool = KalmanPool(capacity=8)
        capacity = pool.states.shape[0]
        reference = {}
        for step in range(400):
            if len(reference) < 13 and rng.random() < 0.2:
                box = rng.uniform(5.0, 500.0, size=4)
                row = pool.alloc(*box)
                reference[row] = KalmanFilter(F, H, Q, R, np.append(box, [0.0, 0.0]), P0)
            if len(reference) > 3 and rng.random() < 0.03:
                row = list(reference)[int(rng.integers(len(reference)))]
                pool.free(row)
                del reference[row]
            rows = list(reference)
            rng.shuffle(rows)
            pool.predict(np.array(rows, dtype=np.intp))
            updated = [row for row in rows if rng.random() < 0.6]
            measurements = [tuple(rng.uniform(5.0, 500.0, size=4)) for _ in updated]
            pool.update_rows(updated, measurements)
            for row in rows:
                reference[row].predict()
            for row, z in zip(updated, measurements):
                reference[row].update(np.array(z))
            for row, kf in reference.items():
                assert np.array_equal(pool.states[row], kf.state), (step, row)
                assert np.array_equal(pool.covs[row], kf.covariance), (step, row)
                # np.array_equal treats -0.0 as 0.0; the bytes do not.
                assert pool.states[row].tobytes() == kf.state.tobytes(), (step, row)
                assert pool.covs[row].tobytes() == kf.covariance.tobytes(), (step, row)
        assert pool.states.shape[0] > capacity

    def test_signed_zero_boxes_match_reference_bytes(self):
        """A box or measurement with -0.0 entries: the slice-form predict and
        update leave the bytes the matrix products leave."""
        pool = KalmanPool(capacity=8)
        boxes = [(-0.0, -0.0, -0.0, -0.0), (0.0, -0.0, 5.0, -0.0), (-0.0, 3.0, -0.0, 7.0)]
        reference = {}
        for box in boxes:
            row = pool.alloc(*box)
            reference[row] = KalmanFilter(F, H, Q, R, np.array([*box, 0.0, 0.0]), P0)
        rows = list(reference)
        for step, z in enumerate([(-0.0, 0.0, -0.0, -0.0), (1.0, -1.0, -0.0, 2.0)]):
            pool.predict(np.array(rows, dtype=np.intp))
            for row, kf in reference.items():
                kf.predict()
                assert pool.states[row].tobytes() == kf.state.tobytes(), (step, row)
                assert pool.covs[row].tobytes() == kf.covariance.tobytes(), (step, row)
            pool.update_rows(rows, [z] * len(rows))
            for row, kf in reference.items():
                kf.update(np.array(z))
                assert pool.states[row].tobytes() == kf.state.tobytes(), (step, row)
                assert pool.covs[row].tobytes() == kf.covariance.tobytes(), (step, row)
