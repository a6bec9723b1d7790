"""Driving-scenario simulation substrate.

This package replaces the LGSVL/Unity simulator used in the paper with a
deterministic, seedable 2-D road-frame simulator.  It provides:

* a road/lane model (:mod:`repro.sim.road`),
* actor kinematics and waypoint following (:mod:`repro.sim.actors`,
  :mod:`repro.sim.waypoints`),
* the five driving scenarios DS-1 ... DS-5 from paper §V-C
  (:mod:`repro.sim.scenarios`),
* collision / emergency-braking event bookkeeping (:mod:`repro.sim.events`),
* the simulation loop that wires sensors, the ADS, and an optional
  man-in-the-middle attacker together, one run per lane
  (:mod:`repro.sim.simulator`),
* and a batch engine that steps many independently-seeded lanes through that
  loop in lockstep, each with the result it gets alone
  (:mod:`repro.sim.batch`).
"""

from repro.sim.actors import ActorKind, ActorSnapshot, EgoVehicle, ScriptedActor
from repro.sim.config import SimulationConfig
from repro.sim.events import EventLog, SimulationEvent
from repro.sim.road import Lane, Road
from repro.sim.scenarios import (
    DrivingScenario,
    ScenarioVariation,
    build_scenario,
    list_scenario_ids,
)
from repro.sim.waypoints import Waypoint, WaypointRoute
from repro.sim.world import GroundTruthSnapshot, World


def __getattr__(name: str):
    """Lazily expose the simulator loop.

    ``repro.sim.simulator`` depends on the sensor and ADS packages, which in
    turn import the low-level ``repro.sim`` submodules; importing it lazily
    keeps ``import repro.sim`` free of that cycle.
    """
    if name in ("Simulator", "SimulationResult"):
        from repro.sim import simulator

        return getattr(simulator, name)
    if name in ("BatchSimulator", "BatchRunSpec"):
        from repro.sim import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ActorKind",
    "ActorSnapshot",
    "EgoVehicle",
    "ScriptedActor",
    "SimulationConfig",
    "EventLog",
    "SimulationEvent",
    "Lane",
    "Road",
    "DrivingScenario",
    "ScenarioVariation",
    "build_scenario",
    "list_scenario_ids",
    "SimulationResult",
    "Simulator",
    "BatchRunSpec",
    "BatchSimulator",
    "Waypoint",
    "WaypointRoute",
    "GroundTruthSnapshot",
    "World",
]
