"""Obstacle prediction: deciding which obstacles are (or will be) in the ego path.

The planner cares about two questions per obstacle:

* is it inside the ego lane right now?
* is its current lateral motion going to bring it into (or out of) the ego
  lane within the prediction horizon?

Both use a constant-lateral-velocity extrapolation of the fused obstacle
state, which is also what makes the trajectory-hijacking attacks effective:
fooling the fused lateral position/velocity changes the predicted lane
membership and therefore the planner's reaction (paper §III-C attack vectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.sim.actors import ActorKind
from repro.sim.road import Road

__all__ = ["PredictionConfig", "ObstaclePredictor"]

#: Nominal half-widths used to decide lane overlap, per class.
_NOMINAL_HALF_WIDTH_M = {
    ActorKind.VEHICLE: 0.95,
    ActorKind.PEDESTRIAN: 0.25,
}
#: Nominal half-lengths used to convert centre distance to bumper gap.
_NOMINAL_HALF_LENGTH_M = {
    ActorKind.VEHICLE: 2.3,
    ActorKind.PEDESTRIAN: 0.25,
}


@dataclass(frozen=True)
class PredictionConfig:
    """Parameters of the lane-membership prediction."""

    #: How far ahead (s) lateral motion is extrapolated.
    horizon_s: float = 1.5
    #: Extra lateral margin (m) added around the ego lane when testing overlap.
    lateral_margin_m: float = 0.15
    #: Minimum lateral speed (m/s) treated as genuine lateral motion (smaller
    #: values are indistinguishable from detector noise).
    min_lateral_speed_mps: float = 0.6
    #: Obstacles closer than this are judged on their current lane membership
    #: only; velocity-based extrapolation is too noisy at very short range (the
    #: object is about to be passed anyway).
    min_prediction_distance_m: float = 10.0

    def __post_init__(self) -> None:
        if self.horizon_s < 0:
            raise ValueError("horizon must be non-negative")


# The two classes and their nominal sizes as plain names: enum attribute and
# enum-keyed dict lookups are costly on the per-obstacle path.
_VEHICLE = ActorKind.VEHICLE
_PEDESTRIAN = ActorKind.PEDESTRIAN
_VEHICLE_HALF_LENGTH = _NOMINAL_HALF_LENGTH_M[_VEHICLE]
_PEDESTRIAN_HALF_LENGTH = _NOMINAL_HALF_LENGTH_M[_PEDESTRIAN]
_PEDESTRIAN_HALF_WIDTH = _NOMINAL_HALF_WIDTH_M[_PEDESTRIAN]


class ObstaclePredictor:
    """Constant-velocity lane-membership prediction for fused obstacles.

    The row-level methods (:meth:`lead_index`, :meth:`near_path_pedestrian`,
    :meth:`gap`) take obstacle rows or an obstacle's fields as plain values —
    the obstacle rows of :mod:`repro.perception.fusion`.
    The ego lane is read from ``road`` once, at construction.
    """

    def __init__(self, road: Road, config: PredictionConfig | None = None):
        self.road = road
        self.config = config or PredictionConfig()
        lane = road.ego_lane
        self._lane_min = lane.y_min
        self._lane_max = lane.y_max
        # Lateral bounds of the ego path per class: the lane widened by the
        # lateral margin plus the class's nominal half width.
        self._vehicle_path = self._widened_lane(self.config.lateral_margin_m, _VEHICLE)
        self._pedestrian_path = self._widened_lane(self.config.lateral_margin_m, _PEDESTRIAN)

    def _widened_lane(self, margin: float, kind: ActorKind) -> Tuple[float, float]:
        margin = margin + _NOMINAL_HALF_WIDTH_M[kind]
        return (self._lane_min - margin, self._lane_max + margin)

    # ------------------------------------------------------------------ #
    # Row-level core
    # ------------------------------------------------------------------ #

    def gap(self, kind: ActorKind, distance: float) -> float:
        """Bumper-to-bumper gap from the ego front to the obstacle rear."""
        return distance - (_VEHICLE_HALF_LENGTH if kind is _VEHICLE else _PEDESTRIAN_HALF_LENGTH)

    def _in_path_now(self, kind: ActorKind, lateral: float) -> bool:
        low, high = self._vehicle_path if kind is _VEHICLE else self._pedestrian_path
        return low <= lateral <= high

    def _in_path_ahead(
        self, kind: ActorKind, distance: float, lateral: float, lateral_velocity: float
    ) -> bool:
        cfg = self.config
        if distance < cfg.min_prediction_distance_m:
            return False
        if abs(lateral_velocity) < cfg.min_lateral_speed_mps:
            lateral_velocity = 0.0
        return self._in_path_now(kind, lateral + lateral_velocity * cfg.horizon_s)

    def lead_index(self, rows: Sequence[tuple]) -> Optional[int]:
        """Index of the closest obstacle row that is in the ego path now or
        predicted to be within the horizon (the first on ties).

        Rows are ``(kind, distance, lateral, speed, lateral_velocity, ...)``
        in any order.
        """
        lead = None
        lead_distance = 0.0
        for index, row in enumerate(rows):
            distance = row[1]
            if distance <= 0 or (lead is not None and not distance < lead_distance):
                continue
            kind = row[0]
            lateral = row[2]
            # _in_path_now, inlined: this runs per obstacle per planning cycle.
            low, high = self._vehicle_path if kind is _VEHICLE else self._pedestrian_path
            if low <= lateral <= high or self._in_path_ahead(kind, distance, lateral, row[4]):
                lead = index
                lead_distance = distance
        return lead

    def near_path_pedestrian(
        self,
        kind: ActorKind,
        distance: float,
        lateral: float,
        max_distance_m: float,
        caution_margin_m: float,
    ) -> bool:
        """A pedestrian within ``max_distance_m`` and close to the ego lane
        boundary (the caution-speed rule)."""
        if kind is not _PEDESTRIAN or not 0.0 < distance <= max_distance_m:
            return False
        margin = caution_margin_m + _PEDESTRIAN_HALF_WIDTH
        return self._lane_min - margin <= lateral <= self._lane_max + margin
