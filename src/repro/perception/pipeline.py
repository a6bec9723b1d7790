"""The full perception system facade.

``PerceptionSystem`` wires together the simulated detector, the multi-object
tracker, the image-to-world transformation, and the fusion policy its
:class:`~repro.perception.fusion.FusionConfig` names in
:data:`~repro.perception.fusion.FUSION_POLICIES` — the pipeline labelled
"Perception System" in paper Fig. 1.  A simulation lane calls each stage's
row-level core on the rows it carries (see :mod:`repro.sim.simulator`).

Two configurations are used in the reproduction:

* the **victim ADS** runs the full pipeline with the fusion policy named by
  ``PerceptionConfig.fusion.policy`` (``late`` by default);
* **RoboTack** runs a camera-only instance
  (``FusionConfig(policy="camera_only")``) to reconstruct its own approximate
  world state from the tapped camera feed (paper §III-D, Phase 2); it reads
  the transform's estimate rows, so its fusion stage never runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perception.detection import DetectorConfig, SimulatedDetector
from repro.perception.fusion import FUSION_POLICIES, FusionConfig
from repro.perception.mot import MultiObjectTracker, TrackerConfig
from repro.perception.transforms import ImageToWorldTransform

__all__ = ["PerceptionConfig", "PerceptionSystem"]


@dataclass(frozen=True)
class PerceptionConfig:
    """Configuration of the perception pipeline."""

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    frame_dt_s: float = 1.0 / 15.0


class PerceptionSystem:
    """Detector + tracker + transform (+ fusion) pipeline."""

    def __init__(
        self,
        config: PerceptionConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.config = config or PerceptionConfig()
        self.detector = SimulatedDetector(self.config.detector, rng=rng)
        self.tracker = MultiObjectTracker(self.config.tracker)
        self.transform = ImageToWorldTransform(frame_dt_s=self.config.frame_dt_s)
        fusion = self.config.fusion
        self.fusion = FUSION_POLICIES[fusion.policy](fusion)
        # ``fuse`` is the fusion contract every lane calls; a plug-in factory's
        # policy without one fails here, in one line.
        if not callable(getattr(self.fusion, "fuse", None)):
            raise ValueError(f"fusion policy {fusion.policy!r} has no fuse(estimates, lidar, "
                             "ego_speed_mps, frame_dt_s) method")

    def reset(self) -> None:
        """Reset all stateful stages."""
        self.detector.reset()
        self.tracker.reset()
        self.transform.reset()
        self.fusion.reset()
