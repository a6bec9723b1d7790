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

from operator import itemgetter
from typing import List

import numpy as np

from repro.sensors.noise import GaussianNoise
from repro.sim.actors import ActorKind

__all__ = ["LidarSensor"]

_first = itemgetter(0)
#: Enum attribute lookups are costly per object per scan.
_VEHICLE = ActorKind.VEHICLE


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

    def scan_rows(self, world) -> List[tuple]:
        """One scan of the live ``world`` as ``(distance, lateral, actor_id,
        kind, vx)`` rows, the fusion core's LiDAR input, nearest first.

        Distance is from the ego front bumper; each detection in range takes
        one ``(x, y)`` pair of position noise, in actor order.
        """
        ego = world.ego
        ego_front = ego.x + ego.length / 2.0
        ego_y = ego.y
        noise = self._noise
        rows = []
        for actor in world.actors:
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
