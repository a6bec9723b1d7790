"""Pinhole-style projection between the road frame and the image plane.

The LGSVL setup in the paper uses a 1920x1080 front camera.  We model a
simplified pinhole camera that maps an object at longitudinal distance ``d``
(metres ahead of the camera) and lateral offset ``y`` (metres, positive left)
to an image-plane bounding box:

* horizontal centre:  ``cx = image_cx - focal * y / d``  (left in the world is
  left in the image),
* box width:          ``focal * object_width / d``,
* box height:         ``focal * object_height / d``,
* vertical centre:    derived from the camera height and the object's vertical
  extent so that nearer/taller objects sit lower/larger in the frame.

The perception stack inverts the same model ("T" in paper Fig. 1) to recover
distance and lateral offset from a box, which is exactly the quantity the
trajectory hijacker manipulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.bbox import BoundingBox

__all__ = ["CameraIntrinsics", "CameraProjection"]


@dataclass(frozen=True)
class CameraIntrinsics:
    """Intrinsic parameters of the simulated front camera."""

    image_width: int = 1920
    image_height: int = 1080
    focal_px: float = 1000.0
    camera_height_m: float = 1.5
    #: The image centre, derived from the size (plain fields, not properties:
    #: the camera reads them every simulated step).
    image_cx: float = field(init=False, repr=False, compare=False)
    image_cy: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.focal_px <= 0:
            raise ValueError("focal length must be positive")
        object.__setattr__(self, "image_cx", self.image_width / 2.0)
        object.__setattr__(self, "image_cy", self.image_height / 2.0)


class CameraProjection:
    """Bidirectional mapping between road-frame positions and image boxes."""

    #: Minimum projection distance; objects closer than this are clamped so the
    #: projection stays finite (the simulator halts well before this range).
    MIN_DISTANCE_M = 0.5

    def __init__(self, intrinsics: CameraIntrinsics | None = None):
        self.intrinsics = intrinsics or CameraIntrinsics()

    def project(
        self,
        distance_m: float,
        lateral_m: float,
        object_width_m: float,
        object_height_m: float,
    ) -> BoundingBox:
        """Project an object into an image-plane bounding box.

        ``distance_m`` is the longitudinal distance from the camera to the
        object (must be ahead of the camera), ``lateral_m`` the lateral offset
        of the object centre (positive left).
        """
        if object_width_m <= 0 or object_height_m <= 0:
            raise ValueError("object dimensions must be positive")
        d = max(distance_m, self.MIN_DISTANCE_M)
        intr = self.intrinsics
        scale = intr.focal_px / d
        width_px = object_width_m * scale
        height_px = object_height_m * scale
        cx = intr.image_cx - lateral_m * scale
        # The vertical position of the object centre on the image plane: the
        # ground plane sits camera_height below the optical axis.
        ground_y = intr.image_cy + intr.camera_height_m * scale
        cy = ground_y - (object_height_m / 2.0) * scale
        return BoundingBox(cx=cx, cy=cy, width=width_px, height=height_px)

    def inverse_distance(self, box: BoundingBox, object_height_m: float) -> float:
        """Recover the longitudinal distance from a box's pixel height."""
        if object_height_m <= 0:
            raise ValueError("object height must be positive")
        if box.height <= 0:
            raise ValueError("box height must be positive to invert the projection")
        return self.intrinsics.focal_px * object_height_m / box.height

    def inverse_lateral(self, box: BoundingBox, distance_m: float) -> float:
        """Recover the lateral offset (metres, positive left) from a box centre."""
        d = max(distance_m, self.MIN_DISTANCE_M)
        return (self.intrinsics.image_cx - box.cx) * d / self.intrinsics.focal_px

    def lateral_shift_to_pixels(self, lateral_shift_m: float, distance_m: float) -> float:
        """Convert a world-frame lateral shift into an image-plane pixel shift.

        Used by the trajectory hijacker to translate its desired world-frame
        displacement Omega into per-frame pixel perturbations.
        """
        d = max(distance_m, self.MIN_DISTANCE_M)
        return -lateral_shift_m * self.intrinsics.focal_px / d

    def pixels_to_lateral_shift(self, pixel_shift: float, distance_m: float) -> float:
        """Convert an image-plane pixel shift into a world-frame lateral shift."""
        d = max(distance_m, self.MIN_DISTANCE_M)
        return -pixel_shift * d / self.intrinsics.focal_px

    def in_field_of_view(self, distance_m: float, lateral_m: float) -> bool:
        """Whether a point projects inside the horizontal image bounds."""
        if distance_m < self.MIN_DISTANCE_M:
            return False
        intr = self.intrinsics
        cx = intr.image_cx - lateral_m * intr.focal_px / distance_m
        return 0.0 <= cx <= intr.image_width
