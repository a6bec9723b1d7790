"""Vectorized batch simulation engine.

``BatchSimulator`` advances N independently-seeded runs ("lanes") in lockstep
within one process.  Every lane is a :class:`~repro.sim.simulator.Simulator`
and every group of lanes steps through the one step loop,
:func:`~repro.sim.simulator.run_lockstep` (see :mod:`repro.sim.simulator`).
The expensive numerical kernel — the per-track Kalman predict/update of the
multi-object tracker — is batched across the live tracks of every lane in a
lockstep group: every lane's tracker keeps its tracks in one shared
:class:`~repro.perception.kalman.KalmanPool`, which predicts and updates them
in one stacked call each.  The cheap-but-branchy per-lane logic (sensor
rendering, detector noise, association, fusion, planning) runs as
straight-line Python over plain floats.

A batch wider than :data:`LOCKSTEP_LANES` runs as consecutive lockstep groups
of at most that many lanes, each stepped to completion before the next
starts.  Each per-lane phase then sweeps a group whose state still fits in
the core's cache, and past ~64 lanes the stacked Kalman calls gain nothing
from more width (the constant's comment has the measured curve).

Determinism contract
--------------------

A lane's result is the same, bit for bit, whatever else runs beside it:
alone through :meth:`Simulator.run <repro.sim.simulator.Simulator.run>`, or
in a batch at any group width.  The golden digests
(``tests/sim/test_golden_traces.py``, ``tests/sim/test_batch_equivalence.py``)
pin the results, and a width-independence test runs the same specs at group
widths 1, 3, 4 and 64 and one at a time.  By construction:

* **Seeding** — every lane is a :class:`~repro.sim.simulator.Simulator`,
  built from its spec in spec order, so it draws its LiDAR/GPS seeds from
  the spec's generator as a lone run does.
* **Per-consumer streams** — every stochastic consumer (detector, LiDAR, GPS,
  attacker) owns its own ``np.random.Generator``, so reordering *across*
  consumers cannot change any draw.
* **No shared state** — each lane drives its scenario's own
  :class:`~repro.sim.world.World` and its victim agent's own objects; a
  stacked Kalman call updates each track's row from that track's own
  measurement only.

Restrictions:

* every lane shares one :class:`SimulationConfig` (lockstep needs one ``dt``);
* no two specs may carry the same scenario: each lane drives its scenario's
  world;
* no two specs may carry the same victim agent or the same attacker object:
  two lanes would drive one tracker, planner and attack record;
* the victim's camera perception must be fresh, as for a lone run.

These are checked for every spec before any lane is built, so a rejected
batch has drawn nothing from its specs' generators: once the offending agent
is reset (or replaced), the same specs give the same results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.perception.kalman import KalmanPool
from repro.sim.config import SimulationConfig
from repro.sim.scenarios import DrivingScenario
from repro.sim.simulator import (
    CameraAttacker,
    SimulationResult,
    Simulator,
    holds_run_state,
    run_lockstep,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.ads.agent import AdsAgent

__all__ = ["BatchRunSpec", "BatchSimulator"]

#: Most lanes one lockstep group advances together (see the module
#: docstring).  Measured on one core of a 2-vCPU Xeon host with 2 MB of L2
#: cache per core, as the median of 5 interleaved rounds, 256 benign DS-1
#: lanes ran 35.8 / 40.0 / 47.7 / 44.0 / 31.0 runs/s in groups of
#: 16 / 32 / 64 / 128 / 256 lanes; 64 attacked DS-2 Disappear lanes (neural
#: oracle) ran 66.7 / 73.1 / 77.2 / 76.3 runs/s in groups of 8 / 16 / 32 / 64.
#: Each group pays the stacked Kalman calls' per-step fixed cost (~85 us for
#: one predict and one update, whatever their width): ~3% of a 64-lane step
#: here, which bounds what grouping can cost a host with a larger cache.
LOCKSTEP_LANES = 64
#: Most lanes per :class:`BatchSimulator` in the campaign runner and the
#: oracle's dataset collection: the work item and the durable chunk.  A
#: default 30-run campaign is one chunk; a wider chunk would still step in
#: lockstep groups of at most :data:`LOCKSTEP_LANES`.
DEFAULT_BATCH_SIZE = 32


@dataclass
class BatchRunSpec:
    """One lane of a batch: a scenario, its victim agent, and its seeds."""

    scenario: DrivingScenario
    ads: "AdsAgent"
    attacker: Optional[CameraAttacker] = None
    rng: Optional[np.random.Generator] = None


def _check_specs(specs: Sequence[BatchRunSpec]) -> None:
    """Reject a batch the engine cannot run, before any lane is built."""
    for role, field in (("victim agent", "ads"), ("attacker", "attacker"),
                        ("scenario", "scenario")):
        first_spec = {}
        for index, spec in enumerate(specs):
            obj = getattr(spec, field)
            if obj is not None and first_spec.setdefault(id(obj), index) != index:
                raise ValueError(
                    f"BatchSimulator specs {first_spec[id(obj)]} and {index} share "
                    f"one {role} object; every lane needs its own"
                )
    for index, spec in enumerate(specs):
        if holds_run_state(spec.ads):
            raise ValueError(
                f"BatchSimulator needs a fresh victim agent: spec {index}'s camera "
                "perception already holds state from an earlier run (call "
                "ads.reset() first)"
            )


class BatchSimulator:
    """Advances N independently-seeded runs in lockstep within one process.

    The lanes run as consecutive lockstep groups of at most
    :data:`LOCKSTEP_LANES` lanes in spec order; a group steps to completion
    (:func:`~repro.sim.simulator.run_lockstep`) before the next starts, and
    every group shares the one Kalman pool, whose rows a finished lane has
    already returned.  Every lane is built, and draws its sensor seeds, in
    spec order on construction, and results come back in spec order, so
    neither depends on the group width.
    """

    def __init__(self, specs: Sequence[BatchRunSpec],
                 config: SimulationConfig | None = None):
        if not specs:
            raise ValueError("BatchSimulator needs at least one run spec")
        _check_specs(specs)
        self.config = config or SimulationConfig()
        self._pool = KalmanPool()
        self._lanes = [Simulator(spec.scenario, spec.ads, config=self.config,
                                 attacker=spec.attacker, rng=spec.rng) for spec in specs]
        steps = max(lane.max_steps for lane in self._lanes)
        lidar_due = [self.config.lidar_due(step) for step in range(steps)]
        for lane in self._lanes:
            lane.start(self._pool, lidar_due)

    def run(self) -> List[SimulationResult]:
        """Execute all lanes to completion; results are in spec order."""
        lanes = [lane for lane in self._lanes if lane.result is None]
        for start in range(0, len(lanes), LOCKSTEP_LANES):
            run_lockstep(lanes[start:start + LOCKSTEP_LANES], self._pool)
        return [lane.result for lane in self._lanes]
