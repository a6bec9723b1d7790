"""Road and lane model.

The experiments take place on a straight two-lane road with an adjacent
parking lane (Borregas Avenue in the paper).  The road frame is aligned with
the ego vehicle's direction of travel: ``x`` is longitudinal and ``y`` lateral.

Lane indices used by the scenario builders:

* ``ego``      - the ego vehicle's lane, centred at ``y = 0``;
* ``opposite`` - the adjacent traffic lane to the left (``y = +lane_width``);
* ``parking``  - the parking lane to the right (``y = -lane_width``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["Lane", "Road"]


@dataclass(frozen=True)
class Lane:
    """A longitudinal lane described by its centre line and width."""

    name: str
    center_y: float
    width: float = 3.5
    #: Lateral bounds, derived from the centre line and width (plain fields,
    #: not properties: the ground-truth safety potential reads them every
    #: simulated step).
    y_min: float = field(init=False, repr=False, compare=False)
    y_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("lane width must be positive")
        object.__setattr__(self, "y_min", self.center_y - self.width / 2.0)
        object.__setattr__(self, "y_max", self.center_y + self.width / 2.0)

    def contains_lateral(self, y: float, margin: float = 0.0) -> bool:
        """Whether lateral coordinate ``y`` lies within the lane (plus margin)."""
        return (self.y_min - margin) <= y <= (self.y_max + margin)


@dataclass
class Road:
    """A straight road composed of named lanes."""

    lane_width: float = 3.5
    speed_limit_mps: float = 50.0 / 3.6
    lanes: Dict[str, Lane] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.lanes:
            self.lanes = {
                "ego": Lane("ego", center_y=0.0, width=self.lane_width),
                "opposite": Lane("opposite", center_y=self.lane_width, width=self.lane_width),
                "parking": Lane("parking", center_y=-self.lane_width, width=self.lane_width),
            }

    @property
    def ego_lane(self) -> Lane:
        return self.lanes["ego"]

    def lane(self, name: str) -> Lane:
        """Look up a lane by name."""
        if name not in self.lanes:
            raise KeyError(f"unknown lane {name!r}; available: {sorted(self.lanes)}")
        return self.lanes[name]

    def lane_of(self, y: float) -> Lane | None:
        """Return the lane containing lateral coordinate ``y``, if any."""
        for lane in self.lanes.values():
            if lane.contains_lateral(y):
                return lane
        return None

    def in_ego_lane(self, y: float, margin: float = 0.0) -> bool:
        """Whether lateral coordinate ``y`` is inside the ego lane."""
        return self.ego_lane.contains_lateral(y, margin=margin)
