"""Tests for the trajectory hijacker (how to attack)."""

import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.trajectory_hijacker import TrajectoryHijacker, TrajectoryHijackerConfig
from repro.geometry import BoundingBox, CameraProjection, iou
from repro.perception.mot import MultiObjectTracker
from repro.sim.actors import ActorKind
from repro.sim.road import Road

PROJECTION = CameraProjection()
#: Fields of a camera row (``CameraSensor.render_rows``).
DISTANCE, LATERAL, ACTOR_ID, KIND, CX, CY, W, H, OBJECT_H, OBJECT_W = range(10)


def camera_object(distance=30.0, lateral=0.0, kind=ActorKind.VEHICLE, actor_id=1):
    """The camera row of an object."""
    width = 1.9 if kind is ActorKind.VEHICLE else 0.5
    height = 1.6 if kind is ActorKind.VEHICLE else 1.7
    bbox = PROJECTION.project(distance, lateral, width, height)
    return (distance, lateral, actor_id, kind, bbox.cx, bbox.cy, bbox.width, bbox.height,
            height, width)


def object_for_actor(frame, actor_id):
    """An actor's row in a frame, if it is visible."""
    return next((row for row in frame if row[ACTOR_ID] == actor_id), None)


def box_of(row):
    """The image-plane box of a camera row."""
    return BoundingBox(row[CX], row[CY], row[W], row[H])


def detection_of(row):
    """The detection row of a camera row's box, as ``detect_rows`` returns it."""
    return (row[CX], row[CY], row[W], row[H], row[KIND], row[ACTOR_ID], 0.9)


def perceived_lateral(camera_obj):
    """Recover the lateral position the victim would estimate from a frame object."""
    distance = PROJECTION.inverse_distance(box_of(camera_obj), camera_obj[OBJECT_H])
    return PROJECTION.inverse_lateral(box_of(camera_obj), distance)


@pytest.fixture
def hijacker(road):
    return TrajectoryHijacker(road)


class TestEpisodeLifecycle:
    def test_inactive_by_default(self, hijacker):
        assert not hijacker.active
        frame = [camera_object()]
        assert hijacker.perturb_frame(frame, None) is frame

    def test_begin_and_end(self, hijacker):
        hijacker.begin(AttackVector.MOVE_OUT, target_actor_id=1, target_lateral_m=0.0, target_kind=ActorKind.VEHICLE)
        assert hijacker.active
        assert hijacker.target_actor_id == 1
        hijacker.end()
        assert not hijacker.active

    @pytest.mark.parametrize("vector", [AttackVector.DISAPPEAR, AttackVector.MOVE_OUT])
    def test_perturbed_frame_is_a_new_list(self, hijacker, vector):
        hijacker.begin(vector, 1, 0.0, ActorKind.VEHICLE)
        frame = [camera_object(actor_id=1), camera_object(distance=50, actor_id=2)]
        clean = list(frame)
        out = hijacker.perturb_frame(frame, None)
        assert out is not frame
        assert frame == clean
        assert out != clean

    def test_missing_target_leaves_frame_unchanged(self, hijacker):
        hijacker.begin(AttackVector.MOVE_OUT, 99, 0.0, ActorKind.VEHICLE)
        frame = [camera_object(actor_id=1)]
        out = hijacker.perturb_frame(frame, None)
        assert out == frame


class TestDisappear:
    def test_target_removed_from_frame(self, hijacker):
        hijacker.begin(AttackVector.DISAPPEAR, 1, 0.0, ActorKind.VEHICLE)
        frame = [camera_object(actor_id=1), camera_object(distance=50, actor_id=2)]
        out = hijacker.perturb_frame(frame, None)
        assert object_for_actor(out, 1) is None
        assert object_for_actor(out, 2) is not None

    def test_frames_perturbed_counted(self, hijacker):
        hijacker.begin(AttackVector.DISAPPEAR, 1, 0.0, ActorKind.VEHICLE)
        frame = [camera_object(actor_id=1)]
        for _ in range(5):
            hijacker.perturb_frame(frame, None)
        assert hijacker.frames_perturbed == 5


class TestMoveOut:
    def test_fake_trajectory_leaves_ego_lane(self, hijacker, road):
        hijacker.begin(AttackVector.MOVE_OUT, 1, 0.0, ActorKind.VEHICLE)
        frame = [camera_object(distance=25.0, lateral=0.0)]
        shifted_lateral = 0.0
        for _ in range(40):
            out = hijacker.perturb_frame(frame, None)
            shifted_lateral = perceived_lateral(object_for_actor(out, 1))
        assert not road.in_ego_lane(shifted_lateral, margin=1.0)

    def test_shift_is_gradual_within_noise_bound(self, hijacker):
        hijacker.begin(AttackVector.MOVE_OUT, 1, 0.0, ActorKind.VEHICLE)
        frame = [camera_object(distance=25.0, lateral=0.0)]
        previous = 0.0
        for _ in range(10):
            out = hijacker.perturb_frame(frame, None)
            current = perceived_lateral(object_for_actor(out, 1))
            step = abs(current - previous)
            noise = hijacker.config.detector.noise_for(ActorKind.VEHICLE)
            bound_m = (abs(noise.center_noise_mu_x) + noise.center_noise_sigma_x) * 1.9
            assert step <= bound_m * 1.3
            previous = current

    def test_k_prime_counts_only_shift_phase(self, hijacker):
        hijacker.begin(AttackVector.MOVE_OUT, 1, 0.0, ActorKind.VEHICLE)
        frame = [camera_object(distance=25.0, lateral=0.0)]
        for _ in range(60):
            hijacker.perturb_frame(frame, None)
        assert 0 < hijacker.shift_frames_k_prime < 60
        assert hijacker.frames_perturbed == 60

    def test_out_of_lane_target_is_held_outside(self, hijacker, road):
        # A crossing pedestrian at -4 m: the fake trajectory should keep it
        # outside the ego lane even as the real pedestrian moves in.
        hijacker.begin(AttackVector.MOVE_OUT, 1, -4.0, ActorKind.PEDESTRIAN)
        for step in range(30):
            real_lateral = -4.0 + 1.4 * step / 15.0
            frame = [camera_object(distance=40.0, lateral=real_lateral, kind=ActorKind.PEDESTRIAN)]
            out = hijacker.perturb_frame(frame, None)
            fake = perceived_lateral(object_for_actor(out, 1))
            assert not road.in_ego_lane(fake, margin=0.3)

    def test_vehicle_goal_further_out_than_pedestrian_goal(self, road):
        config = TrajectoryHijackerConfig()
        vehicle_hijacker = TrajectoryHijacker(road, config)
        vehicle_hijacker.begin(AttackVector.MOVE_OUT, 1, 0.0, ActorKind.VEHICLE)
        pedestrian_hijacker = TrajectoryHijacker(road, config)
        pedestrian_hijacker.begin(AttackVector.MOVE_OUT, 1, 0.0, ActorKind.PEDESTRIAN)
        assert abs(vehicle_hijacker._goal_lateral_m) > abs(pedestrian_hijacker._goal_lateral_m)


class TestMoveIn:
    def test_fake_trajectory_enters_ego_lane(self, hijacker, road):
        hijacker.begin(AttackVector.MOVE_IN, 1, -3.5, ActorKind.VEHICLE)
        frame = [camera_object(distance=30.0, lateral=-3.5)]
        final_lateral = -3.5
        for _ in range(40):
            out = hijacker.perturb_frame(frame, None)
            final_lateral = perceived_lateral(object_for_actor(out, 1))
        assert road.in_ego_lane(final_lateral, margin=0.1)

    def test_distance_is_preserved(self, hijacker):
        hijacker.begin(AttackVector.MOVE_IN, 1, -3.5, ActorKind.VEHICLE)
        frame = [camera_object(distance=30.0, lateral=-3.5)]
        out = hijacker.perturb_frame(frame, None)
        obj = object_for_actor(out, 1)
        assert PROJECTION.inverse_distance(box_of(obj), obj[OBJECT_H]) == pytest.approx(30.0, rel=0.01)


class TestAssociationConstraint:
    def test_shift_keeps_association_with_own_tracker(self, road):
        hijacker = TrajectoryHijacker(road)
        hijacker.begin(AttackVector.MOVE_OUT, 1, 0.0, ActorKind.VEHICLE)
        obj = camera_object(distance=25.0, lateral=0.0)
        tracker = MultiObjectTracker()
        tracker.step([detection_of(obj)])
        track = tracker.track_for_actor(1)
        frame = [obj]
        for _ in range(30):
            out = hijacker.perturb_frame(frame, track)
            shifted = object_for_actor(out, 1)
            assert iou(box_of(shifted), track.bbox) >= hijacker.config.association_min_iou
            # The malware's own tracker mirrors the victim's and follows the fake.
            tracker.step([detection_of(shifted)])
            assert list(tracker.tracks.values()) == [track]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryHijackerConfig(association_min_iou=1.0)
