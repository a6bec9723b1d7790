"""Ground-truth world state container.

The :class:`World` owns the ego vehicle and all scripted actors and advances
them each simulation step.  Both simulation engines read the live world: the
sensor models, the ground-truth safety potential and the collision check
(:func:`~repro.sim.actors.colliding_actor`) take any *ground truth* — an
object with ``ego`` and ``actors`` whose members carry the plain-float names
of :class:`~repro.sim.actors.ActorSnapshot` (``x``, ``y``, ``vx``, ``vy``,
``length``, ``width``, ``height``) and, for the sensors, ``time_s`` and
``step_index``.  A :class:`World` is one; so is the immutable
:class:`GroundTruthSnapshot` that :meth:`World.snapshot` captures for
results, tests and offline analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.sim.actors import ActorKind, ActorSnapshot, EgoVehicle, ScriptedActor
from repro.sim.road import Road

__all__ = ["GroundTruthSnapshot", "World", "nearest_in_path"]


@dataclass(frozen=True)
class GroundTruthSnapshot:
    """Immutable ground-truth view of the world at one simulation step."""

    time_s: float
    step_index: int
    ego: ActorSnapshot
    actors: tuple[ActorSnapshot, ...]

    def actor_by_id(self, actor_id: int) -> Optional[ActorSnapshot]:
        """Find a non-ego actor by id, or ``None`` if it is not present."""
        for actor in self.actors:
            if actor.actor_id == actor_id:
                return actor
        return None

    def nearest_in_path_actor(self, road: Road, lateral_margin: float = 0.2) -> Optional[ActorSnapshot]:
        """The closest actor ahead whose footprint overlaps the ego lane."""
        return nearest_in_path(self, road, lateral_margin)


def nearest_in_path(ground_truth, road: Road, lateral_margin: float):
    """The closest actor ahead of the ego front bumper whose footprint
    overlaps the ego lane widened by ``lateral_margin``, or ``None``; ties go
    to the actor listed first."""
    ego = ground_truth.ego
    ego_front = ego.x + ego.length / 2.0
    lane = road.ego_lane
    lane_lo = lane.y_min
    lane_hi = lane.y_max
    nearest = None
    nearest_x = 0.0
    for actor in ground_truth.actors:
        x = actor.x
        if x > ego_front and (nearest is None or x < nearest_x):
            margin = lateral_margin + actor.width / 2.0
            if lane_lo - margin <= actor.y <= lane_hi + margin:
                nearest = actor
                nearest_x = x
    return nearest


class World:
    """The mutable simulation world: one ego vehicle plus scripted actors."""

    def __init__(self, ego: EgoVehicle, actors: Sequence[ScriptedActor], road: Road | None = None):
        self.ego = ego
        self.actors: List[ScriptedActor] = list(actors)
        self.road = road or Road()
        self.time_s = 0.0
        self.step_index = 0

    def step(self, dt: float, ego_acceleration_mps2: float) -> None:
        """Advance the world by one time step (``dt`` must be positive)."""
        self.ego.apply_control(ego_acceleration_mps2, dt)
        for actor in self.actors:
            actor.route.advance(dt)
        self.time_s += dt
        self.step_index += 1

    def snapshot(self) -> GroundTruthSnapshot:
        """Capture the current ground-truth state."""
        return GroundTruthSnapshot(
            time_s=self.time_s,
            step_index=self.step_index,
            ego=self.ego.snapshot(),
            actors=tuple(actor.snapshot() for actor in self.actors),
        )

    def actor_by_id(self, actor_id: int) -> Optional[ScriptedActor]:
        """Look up a scripted actor by id."""
        for actor in self.actors:
            if actor.actor_id == actor_id:
                return actor
        return None

    def pedestrians(self) -> List[ScriptedActor]:
        """All scripted pedestrians."""
        return [a for a in self.actors if a.kind is ActorKind.PEDESTRIAN]

    def vehicles(self) -> List[ScriptedActor]:
        """All scripted (non-ego) vehicles."""
        return [a for a in self.actors if a.kind is ActorKind.VEHICLE]
