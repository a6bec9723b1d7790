"""The scenario matcher: deciding *what* to attack (paper §IV-A, Table I).

The matcher is deliberately a rule-based system so that it runs in negligible
time and evades resource-usage-based detection.  Given the malware's own
estimate of the target object (the object closest to the EV) — its estimate
row ``(distance, lateral, rel_velocity, lateral_velocity, track_id,
actor_id, kind, rel_acceleration, age_frames)``, as
``ImageToWorldTransform.estimate_rows`` renders it — it classifies
the object's trajectory (moving into the ego lane, keeping, or moving out) and
its current lane membership, and looks up the compatible attack vectors:

==============  =====================  ==========================
TO trajectory   TO in EV lane          TO not in EV lane
==============  =====================  ==========================
Moving in       (no attack)            Move_Out / Disappear
Keep            Move_Out / Disappear   Move_In
Moving out      Move_In                (no attack)
==============  =====================  ==========================

When both ``Move_Out`` and ``Disappear`` apply, the matcher prefers
``Disappear`` for pedestrians (small attack windows suffice) and ``Move_Out``
for vehicles, as discussed in paper §IV-A.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.attack_vectors import AttackVector
from repro.sim.actors import NOMINAL_DIMENSIONS, ActorKind
from repro.sim.road import Road

__all__ = ["TrajectoryClass", "ScenarioMatcherConfig", "ScenarioMatcher"]

# Nominal half-widths as plain names: the matcher runs on every attacked frame.
_VEHICLE_HALF_WIDTH = NOMINAL_DIMENSIONS[ActorKind.VEHICLE].width_m / 2.0
_PEDESTRIAN_HALF_WIDTH = NOMINAL_DIMENSIONS[ActorKind.PEDESTRIAN].width_m / 2.0


class TrajectoryClass(enum.Enum):
    """Coarse classification of the target object's lateral motion."""

    MOVING_IN = "moving_in"
    KEEP = "keep"
    MOVING_OUT = "moving_out"


@dataclass(frozen=True)
class ScenarioMatcherConfig:
    """Thresholds used by the rule-based matcher."""

    #: Lateral speed (m/s) below which the object counts as keeping its lane
    #: (smaller estimates are indistinguishable from detector noise).
    keep_lateral_speed_mps: float = 0.6
    #: Lateral margin (m) added to the ego lane when testing lane membership.
    lane_membership_margin_m: float = 0.2
    #: Maximum distance (m) at which an object is worth attacking at all.
    max_target_distance_m: float = 90.0

    def __post_init__(self) -> None:
        if self.keep_lateral_speed_mps < 0:
            raise ValueError("keep_lateral_speed_mps must be non-negative")


class ScenarioMatcher:
    """Rule-based mapping from the target's state to a candidate attack vector."""

    def __init__(
        self,
        road: Road,
        config: ScenarioMatcherConfig | None = None,
        allowed_vectors: Sequence[AttackVector] | None = None,
    ):
        self.road = road
        self.config = config or ScenarioMatcherConfig()
        self.allowed_vectors = tuple(allowed_vectors) if allowed_vectors else tuple(AttackVector)

    def classify_trajectory(self, estimate: tuple) -> TrajectoryClass:
        """Classify the target's lateral motion relative to the ego lane."""
        _distance, lateral, _v, lateral_speed, _tid, _aid, _kind, _a, _age = estimate
        if abs(lateral_speed) < self.config.keep_lateral_speed_mps:
            return TrajectoryClass.KEEP
        moving_towards_lane_center = (lateral > 0) == (lateral_speed < 0)
        return TrajectoryClass.MOVING_IN if moving_towards_lane_center else TrajectoryClass.MOVING_OUT

    def in_ego_lane(self, estimate: tuple) -> bool:
        """Whether the target currently overlaps the ego lane."""
        _distance, lateral, _v, _lv, _tid, _aid, kind, _a, _age = estimate
        half_width = _VEHICLE_HALF_WIDTH if kind is ActorKind.VEHICLE else _PEDESTRIAN_HALF_WIDTH
        margin = self.config.lane_membership_margin_m + half_width
        return self.road.in_ego_lane(lateral, margin=margin)

    def candidate_vectors(self, estimate: tuple) -> tuple[AttackVector, ...]:
        """The attack vectors permitted by Table I for the target's state."""
        trajectory = self.classify_trajectory(estimate)
        in_lane = self.in_ego_lane(estimate)
        if in_lane:
            if trajectory is TrajectoryClass.KEEP:
                return (AttackVector.MOVE_OUT, AttackVector.DISAPPEAR)
            if trajectory is TrajectoryClass.MOVING_OUT:
                return (AttackVector.MOVE_IN,)
            return ()
        if trajectory is TrajectoryClass.MOVING_IN:
            return (AttackVector.MOVE_OUT, AttackVector.DISAPPEAR)
        if trajectory is TrajectoryClass.KEEP:
            return (AttackVector.MOVE_IN,)
        return ()

    def match(self, estimate: tuple) -> Optional[AttackVector]:
        """Select the attack vector for the target's estimate row, or ``None``
        if no rule applies."""
        distance, _lateral, _v, _lv, _tid, _aid, kind, _a, _age = estimate
        if distance <= 0 or distance > self.config.max_target_distance_m:
            return None
        candidates = [v for v in self.candidate_vectors(estimate) if v in self.allowed_vectors]
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        # Both Move_Out and Disappear apply: prefer Disappear for pedestrians
        # (short attack windows suffice), Move_Out for vehicles (paper §IV-A).
        preferred = (
            AttackVector.DISAPPEAR
            if kind is ActorKind.PEDESTRIAN
            else AttackVector.MOVE_OUT
        )
        return preferred if preferred in candidates else candidates[0]
