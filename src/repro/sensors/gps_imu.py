"""GPS/IMU localization sensor.

Provides the ego pose and speed with small Gaussian noise.  The attack model
does not touch localization (the CAN bus and control path are assumed
protected, paper §III-B), but the planner consumes the estimated ego speed, so
the sensor exists to close the loop realistically.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.sensors.noise import GaussianNoise

__all__ = ["GpsImuSensor"]


class GpsImuSensor:
    """Ego localization with configurable Gaussian noise."""

    def __init__(
        self,
        position_noise_m: float = 0.05,
        speed_noise_mps: float = 0.05,
        rng: np.random.Generator | None = None,
    ):
        if position_noise_m < 0 or speed_noise_mps < 0:
            raise ValueError("noise levels must be non-negative")
        self.position_noise_m = position_noise_m
        self.speed_noise_mps = speed_noise_mps
        self._noise = GaussianNoise(
            rng if rng is not None else np.random.default_rng(),
            (position_noise_m, position_noise_m, speed_noise_mps),
        )

    def read(self, world) -> Tuple[float, float, float]:
        """The noisy ego ``(x, y, speed)`` of the live ``world``, speed
        clipped at zero; one draw each, in that order."""
        noise = self._noise
        i = noise.take()
        values = noise.values
        ego = world.ego
        speed = ego.vx + values[i + 2]
        return ego.x + values[i], ego.y + values[i + 1], speed if speed > 0.0 else 0.0
