"""The full perception system facade.

``PerceptionSystem`` wires together the simulated detector, the multi-object
tracker, the image-to-world transformation, and a registry-selected fusion
policy — the pipeline labelled "Perception System" in paper Fig. 1.

Two configurations are used in the reproduction:

* the **victim ADS** runs the full pipeline with the fusion policy named by
  ``PerceptionConfig.fusion.policy`` (``late`` by default);
* **RoboTack** runs a camera-only instance
  (``FusionConfig(policy="camera_only")``) to reconstruct its own approximate
  world state from the tapped camera feed (paper §III-D, Phase 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.perception.detection import Detection, DetectorConfig, SimulatedDetector
from repro.perception.fusion import FusedObstacle, FusionConfig, build_fusion_policy
from repro.perception.mot import MultiObjectTracker, TrackerConfig
from repro.perception.tracker import ObjectTrack
from repro.perception.transforms import ImageToWorldTransform, WorldObjectEstimate
from repro.sensors.camera import CameraFrame
from repro.sensors.lidar import LidarScan

__all__ = ["PerceptionConfig", "PerceptionOutput", "PerceptionSystem"]


@dataclass(frozen=True)
class PerceptionConfig:
    """Configuration of the perception pipeline."""

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    frame_dt_s: float = 1.0 / 15.0


@dataclass(frozen=True)
class PerceptionOutput:
    """Everything the perception system produces for one camera frame."""

    time_s: float
    frame_index: int
    detections: tuple[Detection, ...]
    tracks: tuple[ObjectTrack, ...]
    world_estimates: tuple[WorldObjectEstimate, ...]
    obstacles: tuple[FusedObstacle, ...]

    def nearest_obstacle(self) -> Optional[FusedObstacle]:
        """The closest registered obstacle, if any."""
        return self.obstacles[0] if self.obstacles else None

    def estimate_for_actor(self, actor_id: int) -> Optional[WorldObjectEstimate]:
        """Bookkeeping lookup of the camera estimate for a given actor."""
        for estimate in self.world_estimates:
            if estimate.actor_id == actor_id:
                return estimate
        return None

    def obstacle_for_actor(self, actor_id: int) -> Optional[FusedObstacle]:
        """Bookkeeping lookup of the fused obstacle for a given actor."""
        for obstacle in self.obstacles:
            if obstacle.actor_id == actor_id:
                return obstacle
        return None


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
        self.fusion = build_fusion_policy(self.config.fusion.policy, self.config.fusion)

    def reset(self) -> None:
        """Reset all stateful stages."""
        self.detector.reset()
        self.tracker.reset()
        self.transform.reset()
        self.fusion.reset()

    def process(
        self,
        camera_frame: CameraFrame,
        lidar_scan: Optional[LidarScan] = None,
        ego_speed_mps: float = 0.0,
    ) -> PerceptionOutput:
        """Run the pipeline on one camera frame (and optional LiDAR scan)."""
        detections = self.detector.detect(camera_frame)
        tracks = self.tracker.step(detections)
        # Coasting tracks are not camera evidence (see MultiObjectTracker.observed).
        world_estimates = self.transform.transform(self.tracker.observed)
        obstacles = self.fusion.step(
            camera_estimates=world_estimates,
            lidar_scan=lidar_scan,
            ego_speed_mps=ego_speed_mps,
            frame_dt_s=self.config.frame_dt_s,
        )
        return PerceptionOutput(
            time_s=camera_frame.time_s,
            frame_index=camera_frame.frame_index,
            detections=tuple(detections),
            tracks=tuple(tracks),
            world_estimates=tuple(world_estimates),
            obstacles=tuple(obstacles),
        )
