"""The trajectory hijacker: *how* to attack (paper §IV-C).

Once the safety hijacker has decided to attack, the trajectory hijacker
perturbs the camera feed so that the target object appears to follow a *fake
lateral trajectory*:

* ``Move_Out`` — the fake trajectory drifts out of (or holds clear of) the ego
  lane, so the EV believes an in-path object is leaving its lane (or that an
  object that is really cutting in is staying out);
* ``Move_In`` — the fake trajectory drifts into the ego lane, forcing an
  emergency brake for an object that is really parked or walking beside the
  lane;
* ``Disappear`` — the target's detections are suppressed entirely.

Stealth constraints (paper Eq. 4):

* the per-frame change of the fake trajectory stays within one standard
  deviation of the detector's characterized Gaussian centre noise, so the
  victim's Kalman filter keeps absorbing it as ordinary noise;
* the shifted box must remain associated with the existing tracker state by
  the Hungarian matcher — enforced by keeping the IoU with the attacker's own
  predicted tracker box above the association threshold (the constraint is
  deliberately dropped for ``Disappear``);
* the hijacker stops enlarging the displacement once the fake trajectory
  reaches its goal Ω; the number of frames spent actively shifting is ``K'``
  (paper Fig. 7), after which the fake trajectory is merely maintained for the
  rest of the attack window.

In the paper the box motion is realized by optimizing an adversarial pixel
patch (Jia et al.); the substrate here operates directly at the bounding-box
level of the intercepted camera frame, which exercises the identical
downstream code path (tracker, fusion, planner) — see DESIGN.md for the
substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.attack_vectors import AttackVector
from repro.geometry import BoundingBox, CameraProjection, iou
from repro.perception.detection import DetectorConfig
from repro.perception.tracker import ObjectTrack
from repro.sensors.camera import CameraFrame, CameraObject
from repro.sim.actors import ActorKind
from repro.sim.road import Road

__all__ = ["TrajectoryHijackerConfig", "TrajectoryHijacker"]


@dataclass(frozen=True)
class TrajectoryHijackerConfig:
    """Stealth and goal parameters of the trajectory hijacker."""

    #: Minimum IoU that must be preserved between the shifted detection and the
    #: tracker's predicted box so the Hungarian matcher keeps the association
    #: (the lambda constraint of paper Eq. 4).
    association_min_iou: float = 0.2
    #: Extra lateral clearance (m) beyond the lane edge targeted by Move_Out for
    #: a pedestrian target (usually camera-only, so the camera estimate moves
    #: the fused estimate one-for-one).
    move_out_exit_margin_pedestrian_m: float = 0.7
    #: Extra lateral clearance (m) beyond the lane edge targeted by Move_Out for
    #: a vehicle target.  Vehicles are also confirmed by LiDAR, whose lateral
    #: estimate the fusion blends in, so the camera trajectory must be pushed
    #: further out to move the *fused* estimate out of the lane — this is why
    #: vehicle attacks need longer perturbation windows (paper §VI-C).
    move_out_exit_margin_vehicle_m: float = 2.8
    #: Lateral offset (m) inside the ego lane targeted by Move_In.
    move_in_target_offset_m: float = 0.4
    #: Detector noise models that define the per-frame stealth bound.
    detector: DetectorConfig = field(default_factory=DetectorConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.association_min_iou < 1.0:
            raise ValueError("association_min_iou must be in [0, 1)")


class TrajectoryHijacker:
    """Applies the per-frame camera perturbation for one attack episode."""

    def __init__(
        self,
        road: Road,
        config: TrajectoryHijackerConfig | None = None,
        projection: CameraProjection | None = None,
    ):
        self.road = road
        self.config = config or TrajectoryHijackerConfig()
        self.projection = projection or CameraProjection()
        self._vector: Optional[AttackVector] = None
        self._target_actor_id: Optional[int] = None
        self._fake_lateral_m = 0.0
        self._goal_lateral_m = 0.0
        self._shift_frames = 0
        self._shift_complete = False
        self._frames_perturbed = 0

    # ------------------------------------------------------------------ #
    # Episode lifecycle
    # ------------------------------------------------------------------ #

    @property
    def active(self) -> bool:
        """Whether an attack episode is in progress."""
        return self._vector is not None

    @property
    def target_actor_id(self) -> Optional[int]:
        return self._target_actor_id

    @property
    def shift_frames_k_prime(self) -> int:
        """``K'``: frames spent actively shifting the perceived trajectory."""
        return self._shift_frames

    @property
    def frames_perturbed(self) -> int:
        """Total number of frames perturbed so far in this episode."""
        return self._frames_perturbed

    @property
    def fake_lateral_m(self) -> float:
        """Current lateral position of the fake trajectory."""
        return self._fake_lateral_m

    def begin(
        self, vector: AttackVector, target_actor_id: int, target_lateral_m: float, target_kind: ActorKind
    ) -> None:
        """Start an attack episode against one target object."""
        self._vector = vector
        self._target_actor_id = target_actor_id
        self._fake_lateral_m = target_lateral_m
        self._shift_frames = 0
        self._shift_complete = False
        self._frames_perturbed = 0
        self._goal_lateral_m = self._goal_lateral(vector, target_lateral_m, target_kind)

    def end(self) -> None:
        """Terminate the current attack episode."""
        self._vector = None
        self._target_actor_id = None

    def _goal_lateral(
        self, vector: AttackVector, target_lateral_m: float, target_kind: ActorKind
    ) -> float:
        """The lateral position Ω that the fake trajectory should reach and hold."""
        half_width = 0.95 if target_kind is ActorKind.VEHICLE else 0.25
        exit_margin = (
            self.config.move_out_exit_margin_vehicle_m
            if target_kind is ActorKind.VEHICLE
            else self.config.move_out_exit_margin_pedestrian_m
        )
        lane = self.road.ego_lane
        if vector is AttackVector.MOVE_OUT:
            # Keep the perceived object clear of the ego lane on its own side:
            # either its current position (if already further out) or just
            # beyond the lane edge.
            if target_lateral_m >= 0.0:
                exit_boundary = lane.y_max + half_width + exit_margin
                return max(target_lateral_m, exit_boundary)
            exit_boundary = lane.y_min - half_width - exit_margin
            return min(target_lateral_m, exit_boundary)
        if vector is AttackVector.MOVE_IN:
            # Pull the perceived object just inside the ego lane.
            sign = -1.0 if target_lateral_m > 0 else 1.0
            return sign * self.config.move_in_target_offset_m
        return target_lateral_m

    # ------------------------------------------------------------------ #
    # Per-frame perturbation
    # ------------------------------------------------------------------ #

    def perturb_frame(
        self, frame: CameraFrame, attacker_track: Optional[ObjectTrack]
    ) -> CameraFrame:
        """Apply the perturbation for the active episode to one camera frame.

        ``attacker_track`` is the malware's own tracker state for the target
        (paper's ``s_hat_{t-1}``); it constrains the shift so the association
        survives.  Only its ``bbox`` and ``consecutive_misses`` are read, so
        the batch engine's replica port can answer it too.  When the target is
        not visible in the frame, the frame is returned unchanged (the
        perturbation budget is still consumed by the caller).
        """
        if self._vector is None or self._target_actor_id is None:
            return frame
        self._frames_perturbed += 1

        if self._vector is AttackVector.DISAPPEAR:
            # K' for Disappear counts the frames needed for the (mirrored)
            # tracker to actually lose the object.
            if not self._shift_complete:
                if attacker_track is not None and attacker_track.consecutive_misses <= 1:
                    self._shift_frames += 1
                else:
                    self._shift_complete = True
            return frame.without_actor(self._target_actor_id)

        target_object = frame.object_for_actor(self._target_actor_id)
        if target_object is None:
            return frame

        self._advance_fake_trajectory(target_object, attacker_track)

        offset_m = self._fake_lateral_m - target_object.lateral_m
        pixel_shift = self.projection.lateral_shift_to_pixels(
            offset_m, target_object.distance_m
        )
        shifted = CameraObject(
            actor_id=target_object.actor_id,
            kind=target_object.kind,
            bbox=target_object.bbox.translated(pixel_shift, 0.0),
            distance_m=target_object.distance_m,
            lateral_m=self._fake_lateral_m,
            object_height_m=target_object.object_height_m,
            object_width_m=target_object.object_width_m,
        )
        return frame.with_replaced_object(shifted)

    def _advance_fake_trajectory(
        self, target_object: CameraObject, attacker_track: Optional[ObjectTrack]
    ) -> None:
        """Move the fake lateral trajectory one stealth-bounded step towards Ω."""
        if self._shift_complete:
            return
        remaining = self._goal_lateral_m - self._fake_lateral_m
        if abs(remaining) < 1e-6:
            self._shift_complete = True
            return
        direction = 1.0 if remaining > 0 else -1.0
        step_m = direction * min(abs(remaining), self._stealth_bound_m(target_object))
        step_m = self._respect_association(step_m, target_object, attacker_track)
        self._fake_lateral_m += step_m
        self._shift_frames += 1
        if abs(self._goal_lateral_m - self._fake_lateral_m) < 1e-6:
            self._shift_complete = True

    def _stealth_bound_m(self, target_object: CameraObject) -> float:
        """Per-frame displacement bound: one sigma of the detector centre noise."""
        noise = self.config.detector.noise_for(target_object.kind)
        bound_px = (
            abs(noise.center_noise_mu_x) + noise.center_noise_sigma_x
        ) * target_object.bbox.width
        return abs(
            self.projection.pixels_to_lateral_shift(bound_px, target_object.distance_m)
        )

    def _respect_association(
        self,
        step_m: float,
        target_object: CameraObject,
        attacker_track: Optional[ObjectTrack],
    ) -> float:
        """Shrink the step until the shifted box still matches the tracker box."""
        if attacker_track is None:
            return step_m
        predicted_box: BoundingBox = attacker_track.bbox
        candidate_step = step_m
        for _ in range(4):
            candidate_lateral = self._fake_lateral_m + candidate_step
            pixel_shift = self.projection.lateral_shift_to_pixels(
                candidate_lateral - target_object.lateral_m, target_object.distance_m
            )
            shifted_box = target_object.bbox.translated(pixel_shift, 0.0)
            if iou(shifted_box, predicted_box) >= self.config.association_min_iou:
                return candidate_step
            candidate_step *= 0.5
        return candidate_step
