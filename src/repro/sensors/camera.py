"""The simulated front camera.

Every simulation step the camera renders one *row* per visible object: a
``(distance, lateral, actor_id, kind, cx, cy, width, height, object_height,
object_width)`` tuple — the object's road-frame position relative to the
camera, the simulated actor's id and class, its image-plane bounding box and
its physical height and width — in frame order, nearest first.

The rows are the frame on the camera's Ethernet link, and so the
man-in-the-middle attack surface: RoboTack intercepts them (paper §III-B)
and rewrites object boxes (or removes objects) before the ADS's object
detector consumes them.  :meth:`CameraSensor.render_rows` renders the
layout; the detector's row core (``SimulatedDetector.detect_rows``) reads
it, and the trajectory hijacker (``TrajectoryHijacker.perturb_frame``)
rewrites it.  ``actor_id`` is simulation bookkeeping (the detector's
per-object noise state, the metrics), not something the victim's
association reads.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List

from repro.geometry import CameraIntrinsics, CameraProjection

__all__ = ["CameraSensor"]

_first = itemgetter(0)


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

    def render_rows(self, world) -> List[tuple]:
        """Render the visible actors of the live ``world`` as rows, nearest
        first.

        An actor is visible when it is more than the projection's minimum
        distance and at most ``max_range_m`` ahead of the camera (at the ego
        front bumper) and its centre projects inside the image.  The box is
        :meth:`CameraProjection.project` of the actor's width and height (the
        camera sees the cross-road extent of a vehicle ahead), written out over
        plain floats: every simulation lane calls this every step.
        """
        ego = world.ego
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
        for actor in world.actors:
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
