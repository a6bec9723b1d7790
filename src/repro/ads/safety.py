"""The AV safety model of paper §II-C (after Jha et al., DSN 2019).

* ``dstop`` — the stopping distance: the maximum distance the vehicle travels
  before coming to a complete stop under the maximum *comfortable*
  deceleration (Definition 3).
* ``dsafe`` — the safety envelope: the distance the AV can travel without
  colliding with the obstacle ahead (Definition 4); here the bumper-to-bumper
  longitudinal gap to the nearest in-path object.
* ``δ = dsafe − dstop`` — the safety potential (Definition 5).  The paper uses
  δ ≥ 4 m as the safe-state criterion because the LGSVL/Apollo simulation
  halts below a 4 m separation; the same 4 m threshold defines an *accident*
  in the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.actors import longitudinal_gap
from repro.sim.road import Road
from repro.sim.world import World, nearest_in_path

__all__ = ["SafetyModel", "ground_truth_delta"]


@dataclass(frozen=True)
class SafetyModel:
    """Computes stopping distance and safety potential."""

    #: Maximum comfortable deceleration (m/s^2) used in Definition 3.
    comfortable_decel_mps2: float = 3.0
    #: Planner/actuation reaction time budget (s) added to the stopping
    #: distance.  The paper's Definition 3 has no reaction term, so it defaults
    #: to zero; it is kept configurable for ablations.
    reaction_time_s: float = 0.0
    #: Safety potential below which the AV is considered in an unsafe (accident)
    #: state; 4 m per the paper's adaptation of Definition 5.
    accident_delta_m: float = 4.0

    def __post_init__(self) -> None:
        if self.comfortable_decel_mps2 <= 0:
            raise ValueError("comfortable deceleration must be positive")
        if self.reaction_time_s < 0:
            raise ValueError("reaction time must be non-negative")

    def stopping_distance(self, speed_mps: float) -> float:
        """``dstop`` for the given ego speed (Definition 3)."""
        speed = speed_mps if speed_mps > 0.0 else 0.0
        return speed * self.reaction_time_s + speed * speed / (2.0 * self.comfortable_decel_mps2)

    def safety_potential(self, gap_m: float, speed_mps: float) -> float:
        """``δ = dsafe − dstop`` for a given gap and ego speed (Definition 5)."""
        return gap_m - self.stopping_distance(speed_mps)

    def is_safe(self, gap_m: float, speed_mps: float) -> bool:
        """Whether the AV is in a safe state (δ above the accident threshold)."""
        return self.safety_potential(gap_m, speed_mps) > self.accident_delta_m


def ground_truth_delta(
    world: World,
    road: Road,
    safety_model: SafetyModel,
    target_actor_id: Optional[int] = None,
    lateral_margin: float = 0.3,
) -> float:
    """Ground-truth safety potential of the ego vehicle.

    ``world`` is the live :class:`~repro.sim.world.World` a simulation lane
    drives; the lane scores it every step.  When ``target_actor_id`` is
    given, the safety potential is computed with respect to that actor
    whenever it is ahead of the EV and inside (or laterally overlapping) the
    ego lane; otherwise the nearest in-path actor is used.  Returns ``inf``
    when there is no relevant in-path object, matching the convention that an
    unobstructed road has unbounded safety envelope.
    """
    ego = world.ego
    candidate = None
    if target_actor_id is not None:
        for actor in world.actors:
            if actor.actor_id == target_actor_id:
                if actor.x > ego.x:
                    # Road.in_ego_lane(actor.y, margin)
                    lane = road.ego_lane
                    margin = lateral_margin + actor.width / 2.0
                    if lane.y_min - margin <= actor.y <= lane.y_max + margin:
                        candidate = actor
                break
    if candidate is None:
        candidate = nearest_in_path(world, road, lateral_margin)
    if candidate is None:
        return float("inf")
    # safety_model.safety_potential(gap, ego speed)
    return longitudinal_gap(ego, candidate) - safety_model.stopping_distance(ego.vx)
