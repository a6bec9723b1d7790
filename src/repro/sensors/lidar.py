"""The simulated LiDAR.

The LiDAR provides the spatial redundancy that defends the perception system
against single-sensor attacks (paper §III-B): it measures object positions in
the road frame independently of the camera.  Two properties matter for the
reproduction:

* vehicles return strong echoes and are detected out to a long range;
* pedestrians return weak echoes and are only detected at a much shorter
  range.  The paper attributes RoboTack's higher success rate on pedestrians
  to exactly this: "LiDAR-based object detection fails to register pedestrians
  at a higher longitudinal distance, while recognizing vehicles at the same
  distance" (§VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import List, Optional

import numpy as np

from repro.geometry import Vec2
from repro.sensors.noise import GaussianNoise
from repro.sim.actors import ActorKind

__all__ = ["LidarDetection", "LidarScan", "LidarSensor"]

_first = itemgetter(0)
#: Enum attribute lookups are costly per object per scan.
_VEHICLE = ActorKind.VEHICLE


@dataclass(frozen=True)
class LidarDetection:
    """One LiDAR-detected object, in the ego (road-aligned) frame."""

    actor_id: int
    kind: ActorKind
    #: Position of the object centre relative to the ego front bumper.
    relative_position: Vec2
    #: Velocity of the object relative to the ground (road frame).
    velocity: Vec2

    @property
    def distance_m(self) -> float:
        return self.relative_position.x

    @property
    def lateral_m(self) -> float:
        return self.relative_position.y


@dataclass(frozen=True)
class LidarScan:
    """All objects detected in one LiDAR rotation."""

    time_s: float
    frame_index: int
    detections: tuple[LidarDetection, ...] = field(default_factory=tuple)

    def rows(self) -> List[tuple]:
        """The scan as ``(distance, lateral, actor_id, kind, vx)`` rows, the
        layout :meth:`LidarSensor.scan_rows` renders."""
        return [(d.relative_position.x, d.relative_position.y, d.actor_id, d.kind,
                 d.velocity.x)
                for d in self.detections]

    def detection_for_actor(self, actor_id: int) -> Optional[LidarDetection]:
        """The detection of a specific actor, if present in this scan."""
        for det in self.detections:
            if det.actor_id == actor_id:
                return det
        return None


class LidarSensor:
    """Range-limited LiDAR with class-dependent effective range and small noise."""

    def __init__(
        self,
        vehicle_range_m: float = 80.0,
        pedestrian_range_m: float = 30.0,
        position_noise_m: float = 0.08,
        rng: np.random.Generator | None = None,
    ):
        if vehicle_range_m <= 0 or pedestrian_range_m <= 0:
            raise ValueError("LiDAR ranges must be positive")
        if position_noise_m < 0:
            raise ValueError("position noise must be non-negative")
        self.vehicle_range_m = vehicle_range_m
        self.pedestrian_range_m = pedestrian_range_m
        self.position_noise_m = position_noise_m
        self._noise = GaussianNoise(
            rng if rng is not None else np.random.default_rng(),
            (position_noise_m, position_noise_m),
        )

    def effective_range(self, kind: ActorKind) -> float:
        """Detection range for a given object class."""
        return self.vehicle_range_m if kind is _VEHICLE else self.pedestrian_range_m

    def scan(self, ground_truth) -> LidarScan:
        """Produce one LiDAR scan of the ground truth (a live world or a
        snapshot)."""
        vy = {actor.actor_id: actor.vy for actor in ground_truth.actors}
        return LidarScan(
            time_s=ground_truth.time_s,
            frame_index=ground_truth.step_index,
            detections=tuple(
                LidarDetection(actor_id=actor_id, kind=kind,
                               relative_position=Vec2(distance, lateral),
                               velocity=Vec2(vx, vy[actor_id]))
                for distance, lateral, actor_id, kind, vx in self.scan_rows(ground_truth)
            ),
        )

    def scan_rows(self, ground_truth) -> List[tuple]:
        """One scan as ``(distance, lateral, actor_id, kind, vx)`` rows, the
        fusion core's LiDAR input, nearest first.

        Distance is from the ego front bumper; each detection in range takes
        one ``(x, y)`` pair of position noise, in actor order.
        """
        ego = ground_truth.ego
        ego_front = ego.x + ego.length / 2.0
        ego_y = ego.y
        noise = self._noise
        rows = []
        for actor in ground_truth.actors:
            distance = actor.x - ego_front
            kind = actor.kind
            if distance <= 0.0 or distance > self.effective_range(kind):
                continue
            i = noise.take()
            values = noise.values
            rows.append((distance + values[i], actor.y - ego_y + values[i + 1],
                         actor.actor_id, kind, actor.vx))
        rows.sort(key=_first)
        return rows
