"""The events of a simulation run.

The evaluation in the paper counts two kinds of safety hazards per run:

* **forced emergency braking** (EB) -- read directly from the ADS planner;
* **accidents** -- a ground-truth safety potential below 4 m between the start
  of the attack and the end of the run (paper §VI-D), or a physical collision.

A lane (:class:`~repro.sim.simulator.Simulator`) logs these events, together
with the per-step safety-potential traces needed to regenerate Fig. 6,
straight into its :class:`~repro.sim.simulator.SimulationResult`, which
answers the hazard queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["EventKind", "SimulationEvent"]


class EventKind(enum.Enum):
    """Types of events recorded during a run."""

    EMERGENCY_BRAKE = "emergency_brake"
    COLLISION = "collision"
    ATTACK_STARTED = "attack_started"
    ATTACK_ENDED = "attack_ended"
    SIMULATION_HALTED = "simulation_halted"


@dataclass(frozen=True)
class SimulationEvent:
    """A single timestamped event."""

    kind: EventKind
    time_s: float
    step_index: int
    details: Dict[str, float] = field(default_factory=dict)
