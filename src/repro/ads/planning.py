"""The longitudinal planner: cruise, car-following, and emergency braking.

The planner consumes the fused obstacle rows and produces a desired
longitudinal acceleration.  Behaviourally it reproduces the Apollo reactions that the
paper's attacks exploit:

* with no relevant obstacle, accelerate to and hold the cruise speed
  ("lane-keep mode");
* with an in-path obstacle, follow it with an Intelligent-Driver-Model-style
  gap controller under comfortable accelerations;
* when the situation cannot be resolved comfortably (an obstacle appears too
  close or is closing too fast), command **emergency braking** — the
  safety-hazard event counted throughout the paper's evaluation;
* a caution rule caps the speed when a pedestrian stands close to the ego
  lane (DS-4's golden-run behaviour of slowing from 45 kph to 35 kph).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.ads.prediction import ObstaclePredictor, PredictionConfig
from repro.ads.safety import SafetyModel
from repro.sim.road import Road
from repro.utils.units import kph_to_mps

__all__ = ["PlannerConfig", "LongitudinalPlanner"]


@dataclass(frozen=True)
class PlannerConfig:
    """Parameters of the longitudinal planner."""

    #: Cruise (target) speed when the road ahead is clear.
    cruise_speed_mps: float = kph_to_mps(45.0)
    #: Maximum comfortable acceleration.
    max_accel_mps2: float = 1.2
    #: Maximum comfortable deceleration (also used in the safety model).
    comfortable_decel_mps2: float = 3.0
    #: Maximum (emergency) deceleration.
    max_decel_mps2: float = 6.0
    #: IDM time headway towards the lead obstacle (tuned so the EV settles
    #: roughly 20 m behind a 25 kph lead vehicle, as in the paper's DS-1).
    time_headway_s: float = 2.2
    #: IDM standstill distance.
    standstill_gap_m: float = 3.0
    #: After the lead obstacle is lost (dropped from the world model without
    #: being overtaken), the planner coasts — holds its speed instead of
    #: re-accelerating — for this many cycles.  A cautious ADS does not
    #: immediately speed up into space that was occupied a moment ago.
    lost_lead_coast_frames: int = 20
    #: Deceleration demand (m/s^2) above which the planner escalates to
    #: emergency braking.
    emergency_decel_demand_mps2: float = 3.5
    #: Perceived safety potential (m) below which the planner emergency-brakes
    #: while closing on the obstacle (matches the 4 m accident threshold of the
    #: safety model).
    emergency_delta_m: float = 4.0
    #: Pedestrian caution speed cap (paper DS-4: the EV slows to 35 kph).
    pedestrian_caution_speed_mps: float = kph_to_mps(35.0)
    #: Range within which a near-lane pedestrian triggers the caution cap.
    pedestrian_caution_range_m: float = 45.0
    #: Lateral margin outside the ego lane that still counts as "near" for the
    #: pedestrian caution rule.
    pedestrian_caution_margin_m: float = 1.6
    prediction: PredictionConfig = field(default_factory=PredictionConfig)

    def __post_init__(self) -> None:
        if self.cruise_speed_mps <= 0:
            raise ValueError("cruise speed must be positive")
        if self.max_decel_mps2 < self.comfortable_decel_mps2:
            raise ValueError("max deceleration must be at least the comfortable deceleration")


class LongitudinalPlanner:
    """IDM-style longitudinal planning with emergency-braking escalation.

    :meth:`plan_rows` is the planner, on the obstacle rows of
    :mod:`repro.perception.fusion`.
    """

    def __init__(self, road: Road, config: PlannerConfig | None = None):
        self.config = config or PlannerConfig()
        self.road = road
        self.predictor = ObstaclePredictor(road, self.config.prediction)
        self.safety_model = SafetyModel(
            comfortable_decel_mps2=self.config.comfortable_decel_mps2
        )
        self._cycles_since_lead_lost = 10_000

    def reset(self) -> None:
        """Clear the lost-lead coasting state for a fresh run."""
        self._cycles_since_lead_lost = 10_000

    def plan_rows(
        self, obstacles: Sequence[tuple], ego_speed: float
    ) -> Tuple[float, bool, float, Optional[int], float]:
        """Plan on obstacle rows ``(kind, distance, lateral, speed,
        lateral_velocity, ...)`` in any order.

        Returns (desired acceleration, emergency brake, perceived safety
        potential — inf without a lead, index of the lead row or ``None``,
        target speed).  Clamps are written as conditional expressions with
        ``min``/``max``'s first-argument-wins semantics; they run once per
        lane-step.
        """
        cfg = self.config
        predictor = self.predictor
        lead = predictor.lead_index(obstacles)

        target_speed = cfg.cruise_speed_mps
        for row in obstacles:
            if predictor.near_path_pedestrian(
                row[0], row[1], row[2],
                cfg.pedestrian_caution_range_m, cfg.pedestrian_caution_margin_m,
            ):
                caution_speed = cfg.pedestrian_caution_speed_mps
                target_speed = caution_speed if caution_speed < target_speed else target_speed
                break

        # IDM free-road term: approach the target speed comfortably.
        max_accel = cfg.max_accel_mps2
        comfort_floor = -cfg.comfortable_decel_mps2
        if target_speed <= 0:
            free_accel = comfort_floor
        else:
            accel = max_accel * (1.0 - (ego_speed / target_speed) ** 4)
            accel = comfort_floor if comfort_floor > accel else accel
            free_accel = float(max_accel if max_accel < accel else accel)

        if lead is None:
            self._cycles_since_lead_lost += 1
            if self._cycles_since_lead_lost <= cfg.lost_lead_coast_frames:
                # The lead obstacle vanished from the world model moments ago:
                # hold speed instead of accelerating into the gap it occupied.
                free_accel = 0.0 if 0.0 < free_accel else free_accel
            return free_accel, False, math.inf, None, target_speed
        self._cycles_since_lead_lost = 0

        row = obstacles[lead]
        gap = predictor.gap(row[0], row[1])
        gap = gap if gap > 0.1 else 0.1
        lead_speed = row[3]
        closing_speed = ego_speed - (lead_speed if lead_speed > 0.0 else 0.0)
        perceived_delta = self.safety_model.safety_potential(gap, ego_speed)

        # IDM interaction term for car-following.
        desired_gap = (
            cfg.standstill_gap_m
            + ego_speed * cfg.time_headway_s
            + ego_speed * closing_speed
            / (2.0 * math.sqrt(cfg.max_accel_mps2 * cfg.comfortable_decel_mps2))
        )
        if cfg.standstill_gap_m > desired_gap:
            desired_gap = cfg.standstill_gap_m
        speed_ratio = ego_speed / (0.1 if 0.1 > target_speed else target_speed)
        interaction = max_accel * (1.0 - speed_ratio**4 - (desired_gap / gap) ** 2)
        interaction = float(max_accel if max_accel < interaction else interaction)
        desired = interaction if interaction < free_accel else free_accel

        # Escalate when the situation demands more than comfortable braking.
        emergency = False
        if not closing_speed <= 0.3:
            braking_gap = gap - 1.0
            required_decel = closing_speed**2 / (2.0 * (0.1 if 0.1 > braking_gap else braking_gap))
            emergency = (
                required_decel > cfg.emergency_decel_demand_mps2
                or perceived_delta < cfg.emergency_delta_m
            )
        if emergency:
            desired = -cfg.max_decel_mps2
        elif comfort_floor > desired:
            desired = comfort_floor
        return desired, emergency, perceived_delta, lead, target_speed
