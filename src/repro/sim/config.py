"""Simulation configuration.

The defaults mirror the experimental setup of paper §V: the camera runs at
15 Hz (one simulation step per camera frame), LiDAR at 10 Hz, and the road is
Borregas-Avenue-like with a 50 kph limit.  LGSVL halts a simulation when two
actors come within 4 m of each other; here a run halts only when the ego's
footprint overlaps another actor's, and ``halt_gap_m`` is the 4 m accident
threshold on the safety potential that the paper derives from that limit.
The ego's acceleration limits (``max_decel_mps2``, ``max_accel_mps2``) are
the run's: the simulator sets them on the ego vehicle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """Global parameters of a simulation run."""

    #: Camera frame rate; one simulation step per camera frame (paper §V-B).
    camera_rate_hz: float = 15.0
    #: LiDAR rotation rate (paper §V-B).
    lidar_rate_hz: float = 10.0
    #: Maximum simulated duration of a run, in seconds.
    max_duration_s: float = 40.0
    #: Accident threshold on the safety potential: a run that collides, or
    #: whose ground-truth delta from the attack's start falls below it,
    #: counts as an accident (the 4 m LGSVL halt gap discussed under paper
    #: Definition 5).  It does not halt a run: a run halts only when
    #: footprints overlap.
    halt_gap_m: float = 4.0
    #: Comfortable deceleration used for the stopping-distance definition.
    comfortable_decel_mps2: float = 3.0
    #: Maximum (emergency) deceleration of the ego vehicle; the ego clamps the
    #: ADS command to it.
    max_decel_mps2: float = 6.0
    #: Maximum acceleration of the ego vehicle; the ego clamps the ADS
    #: command to it.
    max_accel_mps2: float = 2.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.camera_rate_hz <= 0 or self.lidar_rate_hz <= 0:
            raise ValueError("sensor rates must be positive")
        if self.max_duration_s <= 0:
            raise ValueError("max_duration_s must be positive")
        if self.halt_gap_m < 0:
            raise ValueError("halt_gap_m must be non-negative")
        if self.comfortable_decel_mps2 <= 0 or self.max_decel_mps2 <= 0:
            raise ValueError("decelerations must be positive")
        if self.max_decel_mps2 < self.comfortable_decel_mps2:
            raise ValueError("max deceleration must be at least the comfortable deceleration")
        if self.max_accel_mps2 <= 0:
            raise ValueError("max_accel_mps2 must be positive")

    @property
    def dt(self) -> float:
        """Simulation time step (one camera frame)."""
        return 1.0 / self.camera_rate_hz

    @property
    def max_steps(self) -> int:
        """Number of simulation steps in a full-length run."""
        return int(round(self.max_duration_s * self.camera_rate_hz))

    def lidar_due(self, step_index: int) -> bool:
        """Whether a LiDAR scan completes on this simulation step.

        The LiDAR runs slower than the camera, so scans are produced on the
        steps where the integer count of completed rotations increases.
        """
        if step_index < 0:
            raise ValueError("step_index must be non-negative")
        t_now = step_index * self.dt
        t_prev = (step_index - 1) * self.dt
        return int(t_now * self.lidar_rate_hz) > int(t_prev * self.lidar_rate_hz)
