"""The simulated object detector (stand-in for YOLOv3).

Paper §VI-A characterizes YOLOv3 on simulated driving video and finds that

* objects are continuously misdetected for bursts whose lengths follow an
  exponential distribution (different parameters for vehicles and
  pedestrians), and
* the predicted bounding-box centres deviate from the ground truth by a
  Gaussian-distributed error when normalized by the box size.

The :class:`SimulatedDetector` is a statistical model with exactly these two
behaviours.  The attack's stealth bounds are derived from the same noise model
(the trajectory hijacker limits its per-frame shift to one standard deviation
of the centre noise, and the safety hijacker caps the attack window at the
99th percentile of the misdetection-burst distribution), so the detector and
the attacker remain mutually consistent by construction — the property the
paper relies on for evading the intrusion-detection system.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.sim.actors import ActorKind

__all__ = [
    "DetectorNoiseModel",
    "DetectorConfig",
    "DetectorDegradation",
    "SimulatedDetector",
]

#: Enum attribute lookups are costly per object per frame.
_VEHICLE = ActorKind.VEHICLE


@dataclass(frozen=True)
class DetectorNoiseModel:
    """Per-class statistical behaviour of the detector.

    ``center_noise_sigma_x`` / ``center_noise_sigma_y`` are the standard
    deviations of the bounding-box centre error normalized by the box width /
    height (the quantity plotted in paper Fig. 5c-f).  ``misdetection_*``
    parameterize the burst model: each frame a detected object starts a
    misdetection burst with probability ``misdetection_start_probability``;
    burst lengths follow a shifted exponential with the given 99th percentile.
    """

    center_noise_mu_x: float
    center_noise_sigma_x: float
    center_noise_mu_y: float
    center_noise_sigma_y: float
    misdetection_start_probability: float
    misdetection_burst_p99_frames: float

    def __post_init__(self) -> None:
        # A NaN passes the sign and percentile checks below, and an infinite
        # burst percentile makes ``burst_rate`` 0.0, which fails only at the
        # first burst, inside ``detect_rows``.
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if not math.isfinite(value):
                raise ValueError(f"{spec.name} must be finite, got {value!r}")
        if self.center_noise_sigma_x < 0 or self.center_noise_sigma_y < 0:
            raise ValueError("noise sigmas must be non-negative")
        if not 0.0 <= self.misdetection_start_probability < 1.0:
            raise ValueError("misdetection start probability must be in [0, 1)")
        if self.misdetection_burst_p99_frames < 1.0:
            raise ValueError("burst 99th percentile must be at least one frame")

    @property
    def burst_rate(self) -> float:
        """Rate of the shifted exponential burst-length distribution.

        Solved from ``p99 = loc + ln(100) / rate`` with ``loc = 1`` (a burst is
        at least one frame long).
        """
        return float(np.log(100.0) / max(self.misdetection_burst_p99_frames - 1.0, 1e-6))

    @staticmethod
    def vehicle_default() -> "DetectorNoiseModel":
        """Default vehicle noise model.

        The misdetection 99th percentile (59 frames) matches paper Fig. 5b; the
        centre-noise sigmas keep the mean/std ordering of Fig. 5c-d (vehicles
        are localized more precisely than pedestrians) at a magnitude the
        Kalman tracker can smooth.
        """
        return DetectorNoiseModel(
            center_noise_mu_x=0.02,
            center_noise_sigma_x=0.12,
            center_noise_mu_y=0.03,
            center_noise_sigma_y=0.10,
            misdetection_start_probability=0.004,
            misdetection_burst_p99_frames=59.0,
        )

    @staticmethod
    def pedestrian_default() -> "DetectorNoiseModel":
        """Default pedestrian noise model (wider centre noise, shorter bursts).

        The misdetection 99th percentile (31 frames) matches paper Fig. 5a; the
        centre noise is wider than for vehicles, matching the ordering of
        Fig. 5e-f.
        """
        return DetectorNoiseModel(
            center_noise_mu_x=0.04,
            center_noise_sigma_x=0.28,
            center_noise_mu_y=0.03,
            center_noise_sigma_y=0.12,
            misdetection_start_probability=0.006,
            misdetection_burst_p99_frames=31.0,
        )


@dataclass(frozen=True)
class DetectorConfig:
    """Noise models per object class plus global detector parameters."""

    vehicle_noise: DetectorNoiseModel = field(default_factory=DetectorNoiseModel.vehicle_default)
    pedestrian_noise: DetectorNoiseModel = field(
        default_factory=DetectorNoiseModel.pedestrian_default
    )
    #: Boxes smaller than this many pixels in height are below the detector's
    #: resolution and are never reported (objects very far away).
    min_bbox_height_px: float = 8.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_bbox_height_px < math.inf:
            raise ValueError(
                f"min_bbox_height_px must be non-negative and finite, got {self.min_bbox_height_px!r}"
            )

    def noise_for(self, kind: ActorKind) -> DetectorNoiseModel:
        """Noise model for an object class."""
        return self.vehicle_noise if kind is ActorKind.VEHICLE else self.pedestrian_noise


@dataclass(frozen=True)
class DetectorDegradation:
    """A parametric weather/visibility degradation applied to a detector.

    Each factor scales one aspect of the base :class:`DetectorConfig` (both
    object classes degrade together, as fog or low light affects the whole
    image).  The identity degradation (all factors 1.0) returns a config equal
    to the base, so sweep axes can include the undegraded detector.

    * ``sigma_scale`` widens the bounding-box centre noise;
    * ``misdetection_scale`` multiplies the per-frame burst start probability;
    * ``burst_scale`` stretches the 99th percentile of burst lengths;
    * ``range_scale`` divides the usable detection range: boxes must be
      ``range_scale`` times taller before the detector reports them.
    """

    sigma_scale: float = 1.0
    misdetection_scale: float = 1.0
    burst_scale: float = 1.0
    range_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("sigma_scale", "misdetection_scale", "burst_scale", "range_scale"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def is_identity(self) -> bool:
        return self == DetectorDegradation()

    def _degrade_noise(self, noise: DetectorNoiseModel) -> DetectorNoiseModel:
        # dataclasses.replace keeps any fields this degradation does not
        # touch (including ones added later) at the base model's values.
        return dataclasses.replace(
            noise,
            center_noise_sigma_x=noise.center_noise_sigma_x * self.sigma_scale,
            center_noise_sigma_y=noise.center_noise_sigma_y * self.sigma_scale,
            misdetection_start_probability=min(
                0.99, noise.misdetection_start_probability * self.misdetection_scale
            ),
            misdetection_burst_p99_frames=max(
                1.0, noise.misdetection_burst_p99_frames * self.burst_scale
            ),
        )

    def apply(self, base: "DetectorConfig | None" = None) -> DetectorConfig:
        """Degrade ``base`` (the default detector when ``None``)."""
        base = base or DetectorConfig()
        return dataclasses.replace(
            base,
            vehicle_noise=self._degrade_noise(base.vehicle_noise),
            pedestrian_noise=self._degrade_noise(base.pedestrian_noise),
            min_bbox_height_px=base.min_bbox_height_px * self.range_scale,
        )


class SimulatedDetector:
    """Statistical stand-in for the YOLOv3 object detector.

    The detector is stateful: each visible object carries a misdetection-burst
    counter so that misdetections are *continuous* runs of frames, matching the
    characterization of paper Fig. 5a-b.  :meth:`detect_rows` is the detector,
    over the camera's rendered rows (:mod:`repro.sensors.camera`): on an
    attacked run, the rows the attacker delivers.
    """

    def __init__(self, config: DetectorConfig | None = None, rng: np.random.Generator | None = None):
        self.config = config or DetectorConfig()
        self._rng = rng if rng is not None else np.random.default_rng()
        #: Remaining burst length (frames) per actor id; 0 means detecting.
        self._burst_remaining: Dict[int, int] = {}

    def reset(self) -> None:
        """Clear all per-object burst state."""
        self._burst_remaining.clear()

    def detect_rows(self, objects: List[tuple]) -> List[tuple]:
        """Run the detector on one frame of rendered rows: one ``(cx, cy, w,
        h, kind, actor_id, confidence)`` row per reported object, in frame
        order.

        A detected object takes one ``standard_normal(4)`` draw and forms
        its centre noise, size jitter and ``confidence`` as ``loc + scale *
        z``, exactly as four ``Generator.normal(loc, scale)`` calls would
        from the same stream.  ``confidence`` is the raw draw: no stage
        reads it, but it keeps the detector's random stream."""
        config = self.config
        vehicle_noise = config.vehicle_noise
        pedestrian_noise = config.pedestrian_noise
        min_bbox_h = config.min_bbox_height_px
        rng = self._rng
        standard_normal = rng.standard_normal
        burst = self._burst_remaining
        detections = []
        visible = set()
        for _distance, _lateral, actor_id, kind, cx, cy, w, h, _oh, _ow in objects:
            visible.add(actor_id)
            if h < min_bbox_h:
                continue
            remaining = burst.get(actor_id, 0)
            if remaining > 0:
                burst[actor_id] = remaining - 1
                continue
            noise = vehicle_noise if kind is _VEHICLE else pedestrian_noise
            if rng.random() < noise.misdetection_start_probability:
                burst_length = 1 + int(rng.exponential(1.0 / noise.burst_rate))
                # The current frame consumes one frame of the burst.
                burst[actor_id] = burst_length - 1 if burst_length > 1 else 0
                continue
            z_x, z_y, z_size, z_conf = standard_normal(4).tolist()
            dx = (noise.center_noise_mu_x + noise.center_noise_sigma_x * z_x) * w
            dy = (noise.center_noise_mu_y + noise.center_noise_sigma_y * z_y) * h
            size_jitter = 1.0 + 0.03 * z_size
            size_jitter = 0.85 if 0.85 > size_jitter else 1.15 if size_jitter > 1.15 else size_jitter
            detections.append((float(cx + dx), float(cy + dy), float(w * size_jitter),
                               float(h * size_jitter), kind, actor_id, 0.85 + 0.08 * z_conf))
        # Forget burst state for objects that left the field of view so the
        # state does not grow unboundedly over a long drive.
        if burst:
            for actor_id in [aid for aid in burst if aid not in visible]:
                del burst[actor_id]
        return detections
