"""The end-to-end ADS agent: perception -> world model -> planning -> control.

``AdsAgent`` is the victim software stack.  Each camera frame it runs the full
perception pipeline (with LiDAR fusion), plans a longitudinal acceleration, and
smooths it through the actuation controller.  The decision it returns carries
the emergency-braking flag and the perceived safety potential that the
evaluation harness records (paper §VI reads both directly from Apollo).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ads.pid import ActuationSmoother, PIDController
from repro.ads.planning import LongitudinalPlanner, PlannerConfig, PlanningDecision
from repro.ads.world_model import WorldModel
from repro.perception.pipeline import PerceptionConfig, PerceptionOutput, PerceptionSystem
from repro.sensors.camera import CameraFrame
from repro.sensors.gps_imu import EgoPoseEstimate
from repro.sensors.lidar import LidarScan
from repro.sim.road import Road

__all__ = ["AdsDecision", "AdsAgent"]


@dataclass(frozen=True)
class AdsDecision:
    """Everything the ADS produced for one control cycle."""

    #: Final (smoothed) acceleration command sent to the vehicle.
    acceleration_mps2: float
    #: Whether emergency braking is engaged this cycle.
    emergency_brake: bool
    #: Safety potential perceived by the planner (inf when the road looks clear).
    perceived_delta_m: float
    #: The raw planning decision.
    planning: PlanningDecision
    #: The perception output used for this cycle.
    perception: PerceptionOutput
    #: The world model used for this cycle.
    world_model: WorldModel


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

    def step(
        self,
        camera_frame: CameraFrame,
        lidar_scan: Optional[LidarScan],
        ego_pose: EgoPoseEstimate,
        dt: float,
    ) -> AdsDecision:
        """Run one full perceive-plan-act cycle."""
        perception_output = self.perception.process(
            camera_frame, lidar_scan, ego_speed_mps=ego_pose.speed_mps
        )
        world_model = WorldModel(
            time_s=camera_frame.time_s,
            ego=ego_pose,
            obstacles=perception_output.obstacles,
        )
        planning = self.planner.plan(world_model)
        smoothed = self.actuate(
            planning.desired_acceleration_mps2,
            planning.emergency_brake,
            planning.target_speed_mps,
            ego_pose.speed_mps,
            dt,
        )
        return AdsDecision(
            acceleration_mps2=smoothed,
            emergency_brake=planning.emergency_brake,
            perceived_delta_m=planning.perceived_delta_m,
            planning=planning,
            perception=perception_output,
            world_model=world_model,
        )

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
        jerk.  The batch engine calls this directly.
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
