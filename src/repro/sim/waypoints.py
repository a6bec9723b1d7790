"""Waypoint routes for scripted actors.

LGSVL scenarios are defined by actor waypoints (position + speed); the same
abstraction drives the scripted (non-ego) actors here.  A route is a polyline
of waypoints; the actor travels along it at the per-segment speed, optionally
pausing at waypoints with a ``hold_s`` duration (used by DS-4's pedestrian who
walks and then stands still).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.geometry import Vec2

__all__ = ["Waypoint", "WaypointRoute"]


@dataclass(frozen=True)
class Waypoint:
    """A single waypoint: a position, the speed towards it, and an optional hold."""

    position: Vec2
    speed_mps: float
    hold_s: float = 0.0

    def __post_init__(self) -> None:
        if self.speed_mps < 0:
            raise ValueError("waypoint speed must be non-negative")
        if self.hold_s < 0:
            raise ValueError("waypoint hold time must be non-negative")


class WaypointRoute:
    """Moves an actor along a polyline of waypoints.

    The actor starts at the first waypoint.  For each subsequent waypoint the
    actor moves in a straight line at that waypoint's speed, then waits for the
    waypoint's hold time before continuing.  After the last waypoint the actor
    remains stationary at its final position.

    The state is plain floats — ``x``, ``y``, ``vx``, ``vy`` — which both
    simulation engines read on the live world every step; ``position`` and
    ``velocity`` are their :class:`Vec2` views.
    """

    __slots__ = ("waypoints", "_xs", "_ys", "_speeds", "_holds", "_last", "_segment_index",
                 "_hold_remaining_s", "x", "y", "vx", "vy")

    def __init__(self, waypoints: Sequence[Waypoint]):
        if len(waypoints) < 1:
            raise ValueError("a route needs at least one waypoint")
        self.waypoints: List[Waypoint] = list(waypoints)
        self._xs = [w.position.x for w in self.waypoints]
        self._ys = [w.position.y for w in self.waypoints]
        self._speeds = [w.speed_mps for w in self.waypoints]
        self._holds = [w.hold_s for w in self.waypoints]
        #: Index of the final waypoint.
        self._last = len(self.waypoints) - 1
        self._segment_index = 0
        self.x = self._xs[0]
        self.y = self._ys[0]
        self.vx = 0.0
        self.vy = 0.0
        self._hold_remaining_s = self._holds[0]
        # An actor that starts moving immediately (no initial hold) already has
        # its cruising velocity at t=0, matching how LGSVL scenarios spawn
        # actors at speed.
        if self._hold_remaining_s <= 0.0 and self._last > 0:
            dx = self._xs[1] - self.x
            dy = self._ys[1] - self.y
            distance = math.hypot(dx, dy)
            if distance != 0.0:
                speed = self._speeds[1]
                self.vx = dx / distance * speed
                self.vy = dy / distance * speed

    @property
    def position(self) -> Vec2:
        """Current position of the actor on the route."""
        return Vec2(self.x, self.y)

    @property
    def velocity(self) -> Vec2:
        """Current velocity of the actor on the route."""
        return Vec2(self.vx, self.vy)

    @property
    def finished(self) -> bool:
        """Whether the actor has reached the final waypoint."""
        return self._segment_index >= self._last and self._hold_remaining_s <= 0.0

    def advance(self, dt: float) -> None:
        """Advance the actor along the route by ``dt`` seconds."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        remaining = dt
        while remaining > 1e-12:
            if self._hold_remaining_s > 0.0:
                waited = min(self._hold_remaining_s, remaining)
                self._hold_remaining_s -= waited
                remaining -= waited
                self.vx = 0.0
                self.vy = 0.0
                continue
            if self._segment_index >= self._last:
                self.vx = 0.0
                self.vy = 0.0
                return
            target = self._segment_index + 1
            dx = self._xs[target] - self.x
            dy = self._ys[target] - self.y
            distance = math.hypot(dx, dy)
            speed = self._speeds[target]
            if speed <= 0.0 or distance <= 1e-9:
                # Zero-speed segment: snap to the target and continue.
                self.x = self._xs[target]
                self.y = self._ys[target]
                self._segment_index = target
                self._hold_remaining_s = self._holds[target]
                self.vx = 0.0
                self.vy = 0.0
                continue
            time_to_target = distance / speed
            ux = dx / distance
            uy = dy / distance
            self.vx = ux * speed
            self.vy = uy * speed
            if time_to_target <= remaining:
                self.x = self._xs[target]
                self.y = self._ys[target]
                remaining -= time_to_target
                self._segment_index = target
                self._hold_remaining_s = self._holds[target]
            else:
                travel = speed * remaining
                self.x = self.x + ux * travel
                self.y = self.y + uy * travel
                remaining = 0.0
        if self._segment_index >= self._last and self._hold_remaining_s <= 0.0:
            self.vx = 0.0
            self.vy = 0.0

    @staticmethod
    def stationary(position: Vec2) -> "WaypointRoute":
        """A route that stays at ``position`` forever (e.g. a parked vehicle)."""
        return WaypointRoute([Waypoint(position=position, speed_mps=0.0)])

    @staticmethod
    def straight_line(
        start: Vec2, end: Vec2, speed_mps: float, hold_at_end_s: float = 0.0
    ) -> "WaypointRoute":
        """A two-waypoint straight route from ``start`` to ``end``."""
        return WaypointRoute(
            [
                Waypoint(position=start, speed_mps=0.0),
                Waypoint(position=end, speed_mps=speed_mps, hold_s=hold_at_end_s),
            ]
        )
