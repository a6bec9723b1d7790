"""The simulated front camera.

Every simulation step the camera captures a :class:`CameraFrame` containing an
image-plane bounding box per visible object.  The frame is the man-in-the-middle
attack surface: RoboTack intercepts it on the camera's Ethernet link (paper
§III-B) and mutates object boxes (or removes objects) before the ADS's object
detector consumes it.

The camera renders *rows*: one ``(distance, lateral, actor_id, kind, cx, cy,
width, height, object_height, object_width)`` tuple per visible object, in
frame order — the fields of :class:`CameraObject`, with the box unpacked.
This module is the one place that builds or unpacks that layout:
:meth:`CameraSensor.render_rows` renders it, :meth:`CameraFrame.from_rows` and
:meth:`CameraFrame.rows` convert between it and a frame, and the detector's
row core (``SimulatedDetector.detect_rows``) reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import List, Optional, Sequence

from repro.geometry import BoundingBox, CameraIntrinsics, CameraProjection
from repro.sim.actors import ActorKind

__all__ = ["CameraObject", "CameraFrame", "CameraSensor"]

_first = itemgetter(0)


@dataclass(frozen=True)
class CameraObject:
    """One object as rendered in the camera frame.

    ``actor_id`` identifies the underlying simulated actor; it is simulation
    bookkeeping (used by the detector's per-object noise state and by the
    metrics), not something the victim perception uses for association.
    """

    actor_id: int
    kind: ActorKind
    bbox: BoundingBox
    distance_m: float
    lateral_m: float
    object_height_m: float
    object_width_m: float


@dataclass(frozen=True)
class CameraFrame:
    """All objects visible to the front camera at one time step."""

    time_s: float
    frame_index: int
    objects: tuple[CameraObject, ...] = field(default_factory=tuple)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], time_s: float, frame_index: int) -> "CameraFrame":
        """The frame of rendered rows (see the module docstring)."""
        return cls(
            time_s=time_s,
            frame_index=frame_index,
            objects=tuple(
                CameraObject(actor_id=aid, kind=kind,
                             bbox=BoundingBox(cx=cx, cy=cy, width=w, height=h),
                             distance_m=distance, lateral_m=lateral,
                             object_height_m=oh, object_width_m=ow)
                for distance, lateral, aid, kind, cx, cy, w, h, oh, ow in rows
            ),
        )

    def rows(self) -> List[tuple]:
        """The frame's objects as rendered rows, in frame order."""
        return [(obj.distance_m, obj.lateral_m, obj.actor_id, obj.kind, obj.bbox.cx,
                 obj.bbox.cy, obj.bbox.width, obj.bbox.height, obj.object_height_m,
                 obj.object_width_m)
                for obj in self.objects]

    def object_for_actor(self, actor_id: int) -> Optional[CameraObject]:
        """The rendering of a specific actor, if visible in this frame."""
        for obj in self.objects:
            if obj.actor_id == actor_id:
                return obj
        return None

    def without_actor(self, actor_id: int) -> "CameraFrame":
        """A copy of the frame with one actor removed (the `Disappear` attack)."""
        return replace(
            self, objects=tuple(o for o in self.objects if o.actor_id != actor_id)
        )

    def with_replaced_object(self, updated: CameraObject) -> "CameraFrame":
        """A copy of the frame with one object replaced (bbox perturbation)."""
        new_objects = tuple(
            updated if o.actor_id == updated.actor_id else o for o in self.objects
        )
        return replace(self, objects=new_objects)


class CameraSensor:
    """Projects world actors into image-plane bounding boxes."""

    def __init__(
        self,
        intrinsics: CameraIntrinsics | None = None,
        max_range_m: float = 110.0,
    ):
        if max_range_m <= 0:
            raise ValueError("camera range must be positive")
        self.projection = CameraProjection(intrinsics)
        self.max_range_m = max_range_m

    def capture(self, ground_truth) -> CameraFrame:
        """Render all visible actors of the ground truth (a live world or a
        snapshot) into a camera frame."""
        return CameraFrame.from_rows(
            self.render_rows(ground_truth), ground_truth.time_s, ground_truth.step_index
        )

    def render_rows(self, ground_truth) -> List[tuple]:
        """Render the visible actors as rows, nearest first.

        An actor is visible when it is more than the projection's minimum
        distance and at most ``max_range_m`` ahead of the camera (at the ego
        front bumper) and its centre projects inside the image.  The box is
        :meth:`CameraProjection.project` of the actor's width and height (the
        camera sees the cross-road extent of a vehicle ahead), written out over
        plain floats: both simulation engines call this every step.
        """
        ego = ground_truth.ego
        camera_x = ego.x + ego.length / 2.0
        ego_y = ego.y
        intrinsics = self.projection.intrinsics
        focal = intrinsics.focal_px
        image_cx = intrinsics.image_cx
        image_cy = intrinsics.image_cy
        image_w = intrinsics.image_width
        camera_h = intrinsics.camera_height_m
        min_distance = CameraProjection.MIN_DISTANCE_M
        max_range = self.max_range_m
        rows = []
        for actor in ground_truth.actors:
            distance = actor.x - camera_x
            if distance <= min_distance or distance > max_range:
                continue
            lateral = actor.y - ego_y
            # CameraProjection.in_field_of_view
            if not 0.0 <= image_cx - lateral * focal / distance <= image_w:
                continue
            scale = focal / distance
            height = actor.height
            width = actor.width
            rows.append((distance, lateral, actor.actor_id, actor.kind,
                         image_cx - lateral * scale,
                         image_cy + camera_h * scale - (height / 2.0) * scale,
                         width * scale, height * scale, height, width))
        rows.sort(key=_first)
        return rows
