"""The end-to-end ADS agent: perception -> planning -> control.

``AdsAgent`` is the victim software stack.  Each camera frame a simulation
lane (:mod:`repro.sim.simulator`) runs its full perception pipeline (with
LiDAR fusion) on plain-float rows, asks its planner for a longitudinal
acceleration, the emergency-braking flag and the perceived safety potential
that the evaluation harness records (paper §VI reads both directly from
Apollo), and smooths the acceleration through :meth:`AdsAgent.actuate`.
:func:`build_ads_agent` builds the victim a scenario prescribes, for
campaigns and for the oracle's training collection alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.ads.pid import ActuationSmoother, PIDController
from repro.ads.planning import LongitudinalPlanner, PlannerConfig
from repro.perception.fusion import FusionConfig
from repro.perception.pipeline import PerceptionConfig, PerceptionSystem
from repro.sim.road import Road

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.scenarios import DrivingScenario

__all__ = ["AdsAgent", "build_ads_agent"]


class AdsAgent:
    """The Apollo-like autonomous driving agent."""

    def __init__(
        self,
        road: Road,
        planner_config: PlannerConfig | None = None,
        perception_config: PerceptionConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.road = road
        self.planner_config = planner_config or PlannerConfig()
        self.perception = PerceptionSystem(perception_config or PerceptionConfig(), rng=rng)
        self.planner = LongitudinalPlanner(road, self.planner_config)
        self.speed_pid = PIDController(kp=0.6, ki=0.05, output_min=-1.0, output_max=1.0)
        self.smoother = ActuationSmoother()

    def reset(self) -> None:
        """Reset all stateful components for a fresh run."""
        self.perception.reset()
        self.planner.reset()
        self.speed_pid.reset()
        self.smoother.reset()

    def actuate(
        self,
        desired_accel: float,
        emergency: bool,
        target_speed_mps: float,
        ego_speed_mps: float,
        dt: float,
    ) -> float:
        """Turn one planned acceleration into the smoothed command.

        The PID speed trim nudges the planned acceleration so the ego speed
        converges on the planner's target speed without overshoot (skipped
        while braking hard or in an emergency); the smoother then limits the
        jerk.
        """
        trim = self.speed_pid.update(target_speed_mps - ego_speed_mps, dt)
        config = self.planner_config
        comfort_floor = -config.comfortable_decel_mps2
        if not emergency and desired_accel > comfort_floor:
            # min(max(trimmed, comfort_floor), max_accel) as conditional expressions.
            trimmed = desired_accel + 0.2 * trim
            trimmed = comfort_floor if comfort_floor > trimmed else trimmed
            max_accel = config.max_accel_mps2
            desired_accel = float(max_accel if max_accel < trimmed else trimmed)
        return self.smoother.smooth(desired_accel, dt, emergency)


def build_ads_agent(
    scenario: "DrivingScenario",
    rng: np.random.Generator,
    fusion: Optional[FusionConfig] = None,
) -> AdsAgent:
    """Construct the victim ADS agent for a scenario.

    Scenarios that model degraded sensing (e.g. DS-7's fog) carry a detector
    override, which is threaded into the agent's perception pipeline here.
    ``fusion`` selects a fusion-policy victim variant; when ``None`` the
    scenario's own ``fusion_config`` (usually ``None`` → the late default)
    applies.
    """
    fusion_config = fusion if fusion is not None else scenario.fusion_config
    perception_kwargs = {}
    if scenario.detector_config is not None:
        perception_kwargs["detector"] = scenario.detector_config
    if fusion_config is not None:
        perception_kwargs["fusion"] = fusion_config
    perception_config = PerceptionConfig(**perception_kwargs) if perception_kwargs else None
    return AdsAgent(
        road=scenario.road,
        planner_config=PlannerConfig(cruise_speed_mps=scenario.cruise_speed_mps),
        perception_config=perception_config,
        rng=rng,
    )
