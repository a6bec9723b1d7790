"""The ground truth: the world a simulation lane drives.

The :class:`World` owns the ego vehicle and all scripted actors and advances
them each simulation step.  It is the one ground truth: the sensors' row
cores, the ground-truth safety potential, :func:`nearest_in_path` and the
collision check (:func:`~repro.sim.actors.colliding_actor`) all read the
live world a lane drives, through the plain-float names its actors carry
(``x``, ``y``, ``vx``, ``vy``, ``length``, ``width``, ``height``), and the
lane's run record reads its ``time_s`` and ``step_index``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.actors import ActorKind, EgoVehicle, ScriptedActor
from repro.sim.road import Road

__all__ = ["World", "nearest_in_path"]


def nearest_in_path(world: World, road: Road, lateral_margin: float):
    """The closest actor of ``world`` ahead of the ego front bumper whose
    footprint overlaps the ego lane widened by ``lateral_margin``, or
    ``None``; ties go to the actor listed first."""
    ego = world.ego
    ego_front = ego.x + ego.length / 2.0
    lane = road.ego_lane
    lane_lo = lane.y_min
    lane_hi = lane.y_max
    nearest = None
    nearest_x = 0.0
    for actor in world.actors:
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
