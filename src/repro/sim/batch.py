"""Vectorized batch simulation engine.

``BatchSimulator`` advances N independently-seeded runs ("lanes") in lockstep
within one process.  The expensive numerical kernel — the per-track Kalman
predict/update of the multi-object tracker — is batched across the live
tracks of every lane in a lockstep group: every lane's tracker keeps its
tracks in one shared :class:`~repro.perception.kalman.KalmanPool`, which
predicts and updates them in one stacked call each.  The cheap-but-branchy
per-lane logic (sensor rendering, detector noise, association, fusion,
planning) runs as straight-line Python over plain floats.

A batch wider than :data:`LOCKSTEP_LANES` runs as consecutive lockstep groups
of at most that many lanes, each stepped to completion before the next
starts.  Each per-lane phase then sweeps a group whose state still fits in
the core's cache, and past ~64 lanes the stacked Kalman calls gain nothing
from more width (the constant's comment has the measured curve).  Lanes never
read each other's state, so results do not depend on the group width.

The scalar :class:`~repro.sim.simulator.Simulator` remains the reference
path; the batch engine is validated against it bit-for-bit by the equivalence
suite (``tests/sim/test_batch_equivalence.py``), and the stages both engines
share are pinned by the golden digests (``tests/sim/test_golden_traces.py``).

Determinism contract
--------------------

The batch engine reproduces the scalar path *bit-identically* (traces, events,
final state) for any lane set, by construction:

* **Seeding** — every lane is a :class:`~repro.sim.simulator.Simulator`,
  built from its spec, so it draws its LiDAR/GPS seeds from the spec's
  generator exactly as the scalar engine does.
* **Per-consumer streams** — every stochastic consumer (detector, LiDAR, GPS,
  attacker) owns its own ``np.random.Generator``, so reordering *across*
  consumers cannot change any draw.
* **Shared world stages** — each lane drives its scenario's own
  :class:`~repro.sim.world.World`, as the scalar loop does, through the same
  plain-float code: ``World.step`` (ego kinematics and route advance), the
  lane's sensors' row cores (``CameraSensor.render_rows``,
  ``LidarSensor.scan_rows``, ``GpsImuSensor.read``, whose noise buffers the
  sensors own), and a :class:`~repro.sim.simulator.RunRecorder` for the
  ground-truth safety potential, the collision check and every event.
* **Shared victim stages** — each lane calls its victim agent's own objects
  on the plain-float rows it carries: the detector's ``detect_rows``, the
  tracker's ``track_rows``, the transform's ``estimate_rows``, the fusion
  policy's ``fuse`` (:class:`RowFusionPolicy`), ``ads.planner.plan_rows`` and
  ``ads.actuate`` — the code the scalar ``AdsAgent.step`` runs through its
  dataclass adapters.

So this module holds no simulation semantics of its own: only the lockstep
loop, the lane's split of a step into two phases around the stacked Kalman
calls, and the batched-replica hook below.

Restrictions (the scalar path has none of these):

* every lane shares one :class:`SimulationConfig` (lockstep needs one ``dt``);
* no two specs may carry the same scenario: each lane drives its scenario's
  world;
* the victim's camera perception must be fresh — a detector, tracker or
  transform that carries state from an earlier run is rejected (call
  ``ads.reset()`` first): a lane moves its tracker onto the shared Kalman
  pool, which cannot take over another pool's rows.  When the run ends the
  tracker returns its rows to the pool;
* no two specs may carry the same victim agent or the same attacker object:
  two lanes would drive one tracker, planner and attack record.

The last three are checked for every spec before any lane is built, so a
rejected batch has drawn nothing from its specs' generators: once the
offending agent is reset (or replaced), the same specs give the scalar
engine's results.

Reference-engine lanes
----------------------

A lane calls its fusion policy's row-level core, which is what ``step`` runs
only while it is the shared :meth:`RowFusionPolicy.step` adapter (every
built-in keeps it, as does a subclass that only overrides ``fuse`` or the
blend weights).  A lane whose policy has its own ``step`` — a third-party
``FUSION_POLICIES`` entry, say — runs on the reference
:class:`~repro.sim.simulator.Simulator` instead, from the same
:class:`BatchRunSpec`; its result takes its place in spec order.

Attackers
---------

RoboTack, its baselines and the scripted attacker that collects the oracle's
training data (:class:`CameraMitmAttackerBase` with the stock frame hook and
a fresh, stock :class:`PerceptionSystem` replica) run their camera-only
replica in lockstep too: the lane calls the replica's own
detector, tracker and transform cores (its fusion stage is skipped because
the attacker reads only world estimates), and the replica's tracker joins the
shared pool.  The attacker's frame hook is called in its two halves around
the replica step, in the scalar order:

* before the stacked predict, :meth:`~CameraMitmAttackerBase.frame_for_replica`
  picks the frame the replica observes; a running attack perturbs it with the
  replica's target track as the previous frame left it;
* after the replicas' stacked update,
  :meth:`~CameraMitmAttackerBase.frame_to_deliver` decides on a launch from
  this frame's world estimates, and a launch reads this frame's updated
  target track.

Once the attacker's episode is over (:attr:`~CameraMitmAttackerBase.episode_over`)
the replica's Kalman rows are freed and the attacker is no longer called: it
would pass every frame through unchanged.  Any other attacker — one that
implements only the :class:`CameraAttacker` protocol — is invoked as a black
box on real :class:`CameraFrame` objects every frame, so it composes
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.core.robotack import CameraMitmAttackerBase
from repro.perception.detection import SimulatedDetector
from repro.perception.fusion import RowFusionPolicy
from repro.perception.kalman import KalmanPool
from repro.perception.mot import MultiObjectTracker
from repro.perception.pipeline import PerceptionSystem
from repro.perception.transforms import ImageToWorldTransform
from repro.sensors.camera import CameraFrame
from repro.sim.config import SimulationConfig
from repro.sim.scenarios import DrivingScenario
from repro.sim.simulator import CameraAttacker, RunRecorder, SimulationResult, Simulator

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


def _batched_replica(attacker: Optional[CameraAttacker]) -> Optional[PerceptionSystem]:
    """The attacker's replica when the batch engine can run it in lockstep.

    That needs the stock frame hook of :class:`CameraMitmAttackerBase` and a
    fresh replica built from the stock stages; anything else stays a black
    box.
    """
    if not isinstance(attacker, CameraMitmAttackerBase):
        return None
    if type(attacker).process_frame is not CameraMitmAttackerBase.process_frame:
        return None
    replica = attacker.perception
    stock = (type(replica) is PerceptionSystem
             and type(replica.detector) is SimulatedDetector
             and type(replica.tracker) is MultiObjectTracker
             and type(replica.transform) is ImageToWorldTransform)
    # An attacker that has already seen frames carries replica tracks, whose
    # Kalman rows cannot move to the shared pool.
    return replica if stock and attacker._frame_count == 0 else None


@dataclass
class BatchRunSpec:
    """One lane of a batch: a scenario, its victim agent, and its seeds."""

    scenario: DrivingScenario
    ads: "AdsAgent"
    attacker: Optional[CameraAttacker] = None
    rng: Optional[np.random.Generator] = None


def _shares_row_core(spec: BatchRunSpec) -> bool:
    """Whether the lane's fusion ``step`` is the shared adapter over the
    row-level ``fuse`` core that a batch lane calls directly."""
    step = spec.ads.perception.fusion.step
    return getattr(step, "__func__", None) is RowFusionPolicy.step


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
        # A batch lane moves the victim's tracker onto the shared pool, which
        # cannot take over rows of another pool; burst state or transform
        # history means the agent was not reset either.
        perception = spec.ads.perception
        if _shares_row_core(spec) and (
                perception.detector._burst_remaining or perception.tracker.tracks
                or perception.transform._history):
            raise ValueError(
                f"BatchSimulator needs a fresh victim agent: spec {index}'s camera "
                "perception already holds state from an earlier run (call "
                "ads.reset() first)"
            )


# --------------------------------------------------------------------------- #
# One lane: a Simulator's run, split into the lockstep phases
# --------------------------------------------------------------------------- #


class _Lane:
    """One batched run: its :class:`Simulator`'s world, sensors and run
    recorder, stepped in two halves.

    ``pre_step`` (sensors -> attack -> detection -> association) feeds the
    shared Kalman pool, and ``post_step`` (transform -> fusion -> planning ->
    actuation -> world step -> collision check) runs after the batched Kalman
    predict/update of its lockstep group (see :class:`BatchSimulator`).  A
    lane with a batched replica also runs ``observe`` before the predict and
    ``replica_step`` before the victim's ``pre_step``.
    """

    def __init__(self, sim: Simulator, pool: KalmanPool, lidar_due: Sequence[bool]):
        ads = sim.ads
        perception = ads.perception
        self.world = sim.scenario.world
        self.dt = sim.config.dt
        self.max_steps = sim.max_steps
        #: The batch's LiDAR schedule, at least ``max_steps`` long.
        self.lidar_due = lidar_due
        self.loop_step = 0
        self.camera = sim.camera
        self.lidar = sim.lidar
        self.gps = sim.gps_imu
        self.recorder = RunRecorder(sim)

        # --- camera perception: the victim's, and the attacker's replica ---
        self.tracker = perception.tracker
        self.tracker.pool = pool
        self.detect_rows = perception.detector.detect_rows
        self.track_rows = self.tracker.track_rows
        self.estimate_rows = perception.transform.estimate_rows
        self.frame_dt = perception.config.frame_dt_s
        self.attacker = sim.attacker
        self.replica = _batched_replica(sim.attacker)
        if self.replica is not None:
            self.replica.tracker.pool = pool
        #: A batched attacker whose episode is over: no longer called.
        self.attacker_done = False
        self.frame: Optional[CameraFrame] = None
        self.clean_objects: List[tuple] = []
        #: The frame the replica observed this step (set by ``observe``).
        self.observed_frame: Optional[CameraFrame] = None

        # --- the victim's own fusion, planner, PID trim and smoother ---
        self.ads = ads
        self.fusion = perception.fusion
        self.planner = ads.planner
        self.last_lidar: Optional[List[tuple]] = None
        self.gps_speed = 0.0

        self.result: Optional[SimulationResult] = None
        self.done = False
        # Actors spawned already overlapping halt at step 0.
        if self.recorder.halt_on_collision(float("inf")) or self.max_steps == 0:
            self._finish()

    # ------------------------------------------------------------------ #
    # pre_step: sensing -> attack -> detection -> association
    # ------------------------------------------------------------------ #

    def _sense(self) -> List[tuple]:
        """Camera, LiDAR (when due) and GPS; returns the rendered rows."""
        world = self.world
        rendered = self.camera.render_rows(world)
        if self.lidar_due[self.loop_step]:
            self.last_lidar = self.lidar.scan_rows(world)
        self.gps_speed = self.gps.read(world)[2]
        return rendered

    def _camera_frame(self, rendered: List[tuple]) -> CameraFrame:
        """The rendered rows as the scalar camera's :class:`CameraFrame`."""
        return CameraFrame.from_rows(rendered, self.world.time_s, self.world.step_index)

    def observe(self) -> None:
        """Batched replica, before the predict: sense, and let the attacker
        pick the frame its replica observes (a running attack perturbs it
        with the target track as the previous frame left it)."""
        rendered = self._sense()
        self.clean_objects = rendered
        self.frame = self._camera_frame(rendered)
        self.observed_frame = self.attacker.frame_for_replica(self.frame)
        if self.attacker.episode_over:
            self._stop_replica()

    def replica_step(self, upd_rows: List[int], upd_z: List[tuple]) -> None:
        """Batched replica: detection and association on the observed frame."""
        observed = self.observed_frame
        objects = self.clean_objects if observed is self.frame else observed.rows()
        replica = self.replica
        replica.tracker.track_rows(replica.detector.detect_rows(objects), upd_rows, upd_z)

    def _stop_replica(self) -> None:
        self.replica.tracker.reset()
        self.replica = None
        self.attacker_done = True

    def pre_step(self, upd_rows: List[int], upd_z: List[tuple]) -> None:
        """Sensing (unless ``observe`` did it) -> attack -> victim detection
        -> association."""
        observed = self.observed_frame
        if observed is not None:
            # Batched replica: deliver, given its estimates from this frame.
            self.observed_frame = None
            delivered = observed
            replica = self.replica
            if replica is not None:
                attacker = self.attacker
                estimates = () if attacker.attack_active else replica.transform.transform(
                    replica.tracker.observed
                )
                delivered = attacker.frame_to_deliver(observed, estimates, self.gps_speed)
                if attacker.episode_over:
                    self._stop_replica()
            self.recorder.log_attack()
            camera_objects = (self.clean_objects if delivered is self.frame
                              else delivered.rows())
        else:
            rendered = self._sense()
            if self.attacker is None or self.attacker_done:
                camera_objects = rendered
            else:
                delivered = self.attacker.process_frame(
                    self._camera_frame(rendered), ego_speed_mps=self.gps_speed, dt=self.dt
                )
                self.recorder.log_attack()
                camera_objects = delivered.rows()
        self.track_rows(self.detect_rows(camera_objects), upd_rows, upd_z)

    # ------------------------------------------------------------------ #
    # post_step: transform -> fusion -> planning -> actuation -> world
    # ------------------------------------------------------------------ #

    def post_step(self) -> None:
        ego_speed = self.gps_speed
        obstacles = self.fusion.fuse(
            self.estimate_rows(self.tracker.observed), self.last_lidar, ego_speed, self.frame_dt
        )
        desired, emergency, perceived, _lead, target_speed = self.planner.plan_rows(
            obstacles, ego_speed
        )
        acceleration = self.ads.actuate(desired, emergency, target_speed, ego_speed, self.dt)
        recorder = self.recorder
        recorder.record_step(emergency, perceived)
        self.world.step(self.dt, acceleration)
        self.loop_step += 1
        if recorder.halt_on_collision(perceived) or self.loop_step >= self.max_steps:
            self._finish()

    def _finish(self) -> None:
        self.result = self.recorder.finish()
        self.tracker.reset()
        if self.replica is not None:
            self._stop_replica()
        self.done = True


# --------------------------------------------------------------------------- #
# The lockstep driver
# --------------------------------------------------------------------------- #


class BatchSimulator:
    """Advances N independently-seeded runs in lockstep within one process.

    The batched lanes run as consecutive lockstep groups of at most
    :data:`LOCKSTEP_LANES` lanes in spec order; a group steps to completion
    before the next starts, and every group shares the one Kalman pool, whose
    rows a finished lane has already returned.  Each step of a group runs
    these phases: (0) lanes with a batched replica sense, and their attackers
    pick the frame the replica observes; (A) one stacked Kalman predict over
    every live victim and replica track of the group's active lanes; (R) the
    replicas' detection and association, and one stacked update of their
    tracks; (B) per-lane sensing, attack, detection, and association
    (collecting matched measurements); (C) one stacked Kalman update of the
    victims' tracks; (D) per-lane world-estimation, fusion, planning,
    actuation, and world advance.  Lanes that halt (collision) or exhaust
    their duration drop out of the active set; a group ends when no lane of
    it is active.  Reference-engine lanes (see the module docstring) run on
    their own :class:`Simulator` after the groups.  Every lane is built, and
    draws its sensor seeds, in spec order on construction, and results come
    back in spec order, so neither depends on the group width.
    """

    def __init__(self, specs: Sequence[BatchRunSpec],
                 config: SimulationConfig | None = None):
        if not specs:
            raise ValueError("BatchSimulator needs at least one run spec")
        _check_specs(specs)
        self.config = config or SimulationConfig()
        self._pool = KalmanPool()
        # Every lane is a Simulator, which draws its sensor seeds on
        # construction, so building them in spec order keeps every
        # generator's draw order.
        sims = [Simulator(spec.scenario, spec.ads, config=self.config,
                          attacker=spec.attacker, rng=spec.rng) for spec in specs]
        batched = [_shares_row_core(spec) for spec in specs]
        steps = max((sim.max_steps for sim, b in zip(sims, batched) if b), default=0)
        lidar_due = [self.config.lidar_due(step) for step in range(steps)]
        self._lanes: List[_Lane | Simulator] = [
            _Lane(sim, self._pool, lidar_due) if b else sim for sim, b in zip(sims, batched)
        ]

    def run(self) -> List[SimulationResult]:
        """Execute all lanes to completion; results are in spec order."""
        lanes = [lane for lane in self._lanes
                 if isinstance(lane, _Lane) and not lane.done]
        for start in range(0, len(lanes), LOCKSTEP_LANES):
            self._run_group(lanes[start:start + LOCKSTEP_LANES])
        return [lane.result if isinstance(lane, _Lane) else lane.run()
                for lane in self._lanes]

    def _run_group(self, active: List[_Lane]) -> None:
        """Step one lockstep group until every lane in it is done."""
        pool = self._pool
        split = [lane for lane in active if lane.replica is not None]
        while active:
            # Phase 0: the attacker picks the frame its replica observes.
            for lane in split:
                lane.observe()
            split = [lane for lane in split if lane.replica is not None]

            # Phase A: stacked predict for every live track.
            pool.predict_tracks([lane.tracker for lane in active]
                                + [lane.replica.tracker for lane in split])

            # Phase R: the replicas' detection, association and update; a
            # launch decision in phase B reads this frame's updated tracks.
            if split:
                rep_rows: List[int] = []
                rep_z: List[tuple] = []
                for lane in split:
                    lane.replica_step(rep_rows, rep_z)
                pool.update_rows(rep_rows, rep_z)

            # Phase B: per-lane sensing/attack/detection/association.
            upd_rows: List[int] = []
            upd_z: List[tuple] = []
            for lane in active:
                lane.pre_step(upd_rows, upd_z)

            # Phase C: stacked update.
            pool.update_rows(upd_rows, upd_z)

            # Phase D: per-lane estimation/fusion/planning/actuation/world.
            for lane in active:
                lane.post_step()
            active = [lane for lane in active if not lane.done]
            split = [lane for lane in split if lane.replica is not None]
