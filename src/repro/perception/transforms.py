"""Image-to-world transformation ("T" in paper Fig. 1).

Each confirmed image-space track is converted into a road-frame estimate of
the object's longitudinal distance, lateral offset, and their rates of change.
Distance is recovered from the pixel height of the box via the pinhole model
(objects of a known class have a nominal physical height); lateral offset from
the horizontal position of the box centre.  Velocities are smoothed finite
differences, mirroring how the paper's perception derives object trajectories
(velocity, acceleration, heading) from the tracked states.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List

from repro.geometry import CameraProjection
from repro.perception.tracker import ObjectTrack
from repro.sim.actors import ActorKind

__all__ = ["ImageToWorldTransform"]

#: Nominal physical heights used to invert the projection, per object class.
NOMINAL_HEIGHT_M = {
    ActorKind.VEHICLE: 1.6,
    ActorKind.PEDESTRIAN: 1.7,
}
#: Enum attribute and enum-keyed dict lookups are costly per track per frame.
_VEHICLE = ActorKind.VEHICLE
_NOMINAL_VEHICLE = NOMINAL_HEIGHT_M[_VEHICLE]
_first = itemgetter(0)


class ImageToWorldTransform:
    """Stateful conversion of image tracks into road-frame object estimates.

    :meth:`estimate_rows` is the transform.  Its estimate rows are what
    :mod:`repro.perception.fusion` fuses and what the attacker's scenario
    matcher and safety hijacker read (:mod:`repro.core.robotack`).
    """

    def __init__(
        self,
        projection: CameraProjection | None = None,
        frame_dt_s: float = 1.0 / 15.0,
        velocity_smoothing: float = 0.25,
    ):
        if frame_dt_s <= 0:
            raise ValueError("frame_dt_s must be positive")
        if not 0.0 < velocity_smoothing <= 1.0:
            raise ValueError("velocity_smoothing must be in (0, 1]")
        self.projection = projection or CameraProjection()
        self.frame_dt_s = frame_dt_s
        self.velocity_smoothing = velocity_smoothing
        #: Per track id: [distance, lateral, velocity, lateral velocity,
        #: acceleration] as of the track's last estimate.
        self._history: Dict[int, List[float]] = {}

    def reset(self) -> None:
        """Drop all per-track history."""
        self._history.clear()

    def estimate_rows(self, tracks: List[ObjectTrack]) -> List[tuple]:
        """Distance-sorted estimate rows ``(distance, lateral, velocity,
        lateral_velocity, track_id, actor_id, kind, acceleration,
        age_frames)`` of ``tracks``, from their current filtered boxes.

        Distance inverts the pinhole projection of the box height at the
        class's nominal height, lateral offset that of the box centre;
        velocities are smoothed finite differences against the track's
        previous estimate.  History of tracks not passed is dropped.
        """
        intrinsics = self.projection.intrinsics
        focal = intrinsics.focal_px
        image_cx = intrinsics.image_cx
        min_d = self.projection.MIN_DISTANCE_M
        frame_dt = self.frame_dt_s
        alpha = self.velocity_smoothing
        om_alpha = 1 - alpha
        history = self._history
        estimates = []
        for track in tracks:
            cx, _cy, _w, h, _vx, _vy = track.pool.states[track.row].tolist()
            kind = track.kind
            nominal = _NOMINAL_VEHICLE if kind is _VEHICLE else NOMINAL_HEIGHT_M[kind]
            # The box height is floored at 1 px, as ObjectTrack.bbox floors it.
            distance = focal * nominal / (h if h > 1.0 else 1.0)
            d = distance if distance > min_d else min_d
            lateral = (image_cx - cx) * d / focal
            record = history.get(track.track_id)
            if record is None:
                history[track.track_id] = [distance, lateral, 0.0, 0.0, 0.0]
                velocity = 0.0
                lateral_velocity = 0.0
                acceleration = 0.0
            else:
                raw_v = (distance - record[0]) / frame_dt
                raw_lv = (lateral - record[1]) / frame_dt
                velocity = om_alpha * record[2] + alpha * raw_v
                lateral_velocity = om_alpha * record[3] + alpha * raw_lv
                raw_a = (velocity - record[2]) / frame_dt
                acceleration = om_alpha * record[4] + alpha * raw_a
                record[0] = distance
                record[1] = lateral
                record[2] = velocity
                record[3] = lateral_velocity
                record[4] = acceleration
            estimates.append((distance, lateral, velocity, lateral_velocity,
                              track.track_id, track.actor_id, kind,
                              acceleration, track.age_frames))
        # Every estimate has a history entry, so only a larger history can
        # hold tracks that were not passed.
        if len(history) > len(estimates):
            live = {track.track_id for track in tracks}
            for track_id in [tid for tid in history if tid not in live]:
                del history[track_id]
        estimates.sort(key=_first)
        return estimates
