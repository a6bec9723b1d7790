"""Actors: the ego vehicle, scripted vehicles, and pedestrians.

The ego vehicle (EV in the paper) is controlled by the ADS through a
longitudinal acceleration command; every other actor follows a scripted
waypoint route.  Actor footprints are axis-aligned rectangles in the road
frame, which is sufficient for the straight-road scenarios of the paper.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.geometry import Vec2
from repro.sim.config import SimulationConfig
from repro.sim.waypoints import WaypointRoute

__all__ = [
    "ActorKind",
    "ActorDimensions",
    "NOMINAL_DIMENSIONS",
    "ScriptedActor",
    "EgoVehicle",
    "colliding_actor",
    "longitudinal_gap",
]

_actor_id_counter = itertools.count(1)


class ActorKind(enum.Enum):
    """Object classes recognized by the perception system."""

    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"


@dataclass(frozen=True)
class ActorDimensions:
    """Physical footprint and height of an actor."""

    length_m: float
    width_m: float
    height_m: float

    def __post_init__(self) -> None:
        if min(self.length_m, self.width_m, self.height_m) <= 0:
            raise ValueError("actor dimensions must be positive")

    @staticmethod
    def sedan() -> "ActorDimensions":
        return ActorDimensions(length_m=4.6, width_m=1.9, height_m=1.5)

    @staticmethod
    def suv() -> "ActorDimensions":
        return ActorDimensions(length_m=4.9, width_m=2.0, height_m=1.8)

    @staticmethod
    def pedestrian() -> "ActorDimensions":
        return ActorDimensions(length_m=0.5, width_m=0.5, height_m=1.7)


#: Each class's nominal footprint: what a :class:`ScriptedActor` of that class
#: defaults to, and the size the victim's prediction and the attacker assume
#: for an object they know only by class (half its width for lane overlap,
#: half its length for the bumper gap).
NOMINAL_DIMENSIONS = {
    ActorKind.VEHICLE: ActorDimensions.sedan(),
    ActorKind.PEDESTRIAN: ActorDimensions.pedestrian(),
}


def longitudinal_gap(a, b) -> float:
    """Bumper-to-bumper longitudinal gap between two actors (negative if
    their footprints overlap lengthwise); reads ``x`` and ``length``."""
    return abs(b.x - a.x) - (a.length + b.length) / 2.0


def colliding_actor(ego, actors) -> Optional[int]:
    """Id of the first of ``actors`` whose rectangular footprint overlaps
    ``ego``'s, or ``None``: the collision check both engines run after every
    step.  Reads the live actors' ``x``, ``y``, ``length`` and ``width``."""
    x = ego.x
    y = ego.y
    length = ego.length
    width = ego.width
    for actor in actors:
        if (abs(actor.x - x) - (length + actor.length) / 2.0 <= 0.0
                and abs(actor.y - y) <= (width + actor.width) / 2.0):
            return actor.actor_id
    return None


class ScriptedActor:
    """A non-ego actor (vehicle or pedestrian) that follows a waypoint route.

    Its position and velocity are its route's: ``x``, ``y``, ``vx`` and ``vy``
    read the current ``route``, which may be replaced at any time, and
    :meth:`~repro.sim.world.World.step` advances it.
    """

    def __init__(
        self,
        kind: ActorKind,
        route: WaypointRoute,
        dimensions: ActorDimensions | None = None,
        name: str | None = None,
    ):
        self.actor_id = next(_actor_id_counter)
        self.kind = kind
        self.route = route
        if dimensions is None:
            dimensions = NOMINAL_DIMENSIONS[kind]
        self._dimensions = dimensions
        self.length = dimensions.length_m
        self.width = dimensions.width_m
        self.height = dimensions.height_m
        self.name = name or f"{kind.value}-{self.actor_id}"

    @property
    def dimensions(self) -> ActorDimensions:
        return self._dimensions

    @property
    def x(self) -> float:
        return self.route.x

    @property
    def y(self) -> float:
        return self.route.y

    @property
    def vx(self) -> float:
        return self.route.vx

    @property
    def vy(self) -> float:
        return self.route.vy


class EgoVehicle:
    """The ego vehicle, driven longitudinally by the ADS acceleration command.

    The EV keeps its lane (lateral position fixed); the paper's attacks and
    scenarios are longitudinal, and Apollo's planner in those scenarios is in
    lane-keep mode.  Its state is plain floats (``x``, ``y``, ``vx``; ``vy``
    is always zero), with ``position`` and ``speed_mps`` as views.  The
    acceleration limits default to :class:`SimulationConfig`'s; a simulator
    sets them from its run's config.
    """

    vy = 0.0

    def __init__(
        self,
        position: Vec2,
        speed_mps: float,
        dimensions: ActorDimensions | None = None,
        max_accel_mps2: float = SimulationConfig.max_accel_mps2,
        max_decel_mps2: float = SimulationConfig.max_decel_mps2,
    ):
        if speed_mps < 0:
            raise ValueError("initial speed must be non-negative")
        self.actor_id = next(_actor_id_counter)
        self.kind = ActorKind.VEHICLE
        self.x = position.x
        self.y = position.y
        self.vx = speed_mps
        self.acceleration_mps2 = 0.0
        self._dimensions = dimensions or ActorDimensions.sedan()
        self.length = self._dimensions.length_m
        self.width = self._dimensions.width_m
        self.height = self._dimensions.height_m
        self.max_accel_mps2 = max_accel_mps2
        self.max_decel_mps2 = max_decel_mps2
        self.name = "ego"

    @property
    def dimensions(self) -> ActorDimensions:
        return self._dimensions

    @property
    def position(self) -> Vec2:
        return Vec2(self.x, self.y)

    @property
    def speed_mps(self) -> float:
        return self.vx

    def apply_control(self, acceleration_mps2: float, dt: float) -> None:
        """Apply a longitudinal acceleration command for one time step."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        # min(max(command, -max_decel), max_accel), without the builtin calls
        # (this runs once per simulated step on both engines).
        accel = float(acceleration_mps2)
        neg_decel = -self.max_decel_mps2
        if neg_decel > accel:
            accel = neg_decel
        if self.max_accel_mps2 < accel:
            accel = self.max_accel_mps2
        self.acceleration_mps2 = accel
        speed = self.vx
        new_speed = speed + accel * dt
        if not new_speed > 0.0:
            new_speed = 0.0
        # Trapezoidal position update keeps the kinematics consistent when the
        # speed clamps at zero.
        self.x = self.x + (speed + new_speed) / 2.0 * dt
        self.vx = new_speed
