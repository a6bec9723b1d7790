"""The simulation loop.

Each step (one camera frame at 15 Hz) a run:

1. renders the sensor measurements from the live world,
2. lets the (optional) man-in-the-middle attacker observe and perturb the
   camera frame — the attack surface of paper §III-B,
3. runs the victim ADS on the (possibly perturbed) sensors,
4. applies the ADS actuation to the ego vehicle and advances all actors,
5. records safety events: emergency braking, collisions, attack start/end,
   and the ground-truth / perceived safety-potential traces used by the
   evaluation harness.

The loop halts early on a physical collision, mirroring how the LGSVL
simulator stops when actors come too close.

One loop, one lane type
-----------------------

A run is a *lane*: a :class:`Simulator`, whose step is split in two halves
around the Kalman predict/update of its tracks.  :func:`run_lockstep` is the
one step loop: it steps a group of lanes in lockstep and predicts and updates
the tracks of all of them in one stacked call each, on a
:class:`~repro.perception.kalman.KalmanPool` the lanes' trackers share.
:meth:`Simulator.run` steps its one lane alone, on its own pool; the batch
engine (:mod:`repro.sim.batch`) steps many lanes in groups on a shared pool.
Lanes never read each other's state, so a run's result does not depend on
the other lanes of its group, nor on the group width.

Each lane calls the victim agent's own objects on the plain-float rows it
carries: the sensors' row cores (``CameraSensor.render_rows``,
``LidarSensor.scan_rows``, ``GpsImuSensor.read``), the detector's
``detect_rows``, the tracker's ``track_rows``, the transform's
``estimate_rows``, the fusion policy's ``fuse``, ``ads.planner.plan_rows``
and ``ads.actuate``; ``World.step`` advances the world and a
:class:`RunRecorder` keeps every event and trace.

The victim's camera perception must be fresh: a detector, tracker or
transform that carries state from an earlier run is rejected (call
``ads.reset()`` first), because the lane moves the tracker onto the loop's
Kalman pool, which cannot take over another pool's rows.  When the run ends
the tracker returns its rows to the pool.

Attackers
---------

RoboTack, its baselines and the scripted attacker that collects the oracle's
training data (:class:`~repro.core.robotack.CameraMitmAttackerBase` with the
stock frame hook and a fresh, stock
:class:`~repro.perception.pipeline.PerceptionSystem` replica) run their
camera-only replica in lockstep too: the lane calls the replica's own
detector, tracker and transform cores, and the replica's tracker joins the
pool.  The attacker's frame hook is called in its two halves around the
replica step:

* before the stacked predict,
  :meth:`~repro.core.robotack.CameraMitmAttackerBase.frame_for_replica` picks
  the frame the replica observes; a running attack perturbs it with the
  replica's target track as the previous frame left it;
* after the replicas' stacked update,
  :meth:`~repro.core.robotack.CameraMitmAttackerBase.frame_to_deliver`
  decides on a launch from this frame's world estimates, and a launch reads
  this frame's updated target track.

Once the attacker's episode is over
(:attr:`~repro.core.robotack.CameraMitmAttackerBase.episode_over`) the
replica's Kalman rows are freed and the attacker is no longer called: it
would pass every frame through unchanged.  Any other attacker — one that
implements only the :class:`CameraAttacker` protocol — is invoked as a black
box on real :class:`~repro.sensors.camera.CameraFrame` objects every frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

import numpy as np

from repro.ads.safety import SafetyModel, ground_truth_delta
from repro.perception.detection import SimulatedDetector
from repro.perception.kalman import KalmanPool
from repro.perception.mot import MultiObjectTracker
from repro.perception.pipeline import PerceptionSystem
from repro.perception.transforms import ImageToWorldTransform
from repro.sensors.camera import CameraFrame, CameraSensor
from repro.sensors.gps_imu import GpsImuSensor
from repro.sensors.lidar import LidarSensor
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, EventLog, SimulationEvent
from repro.sim.scenarios import DrivingScenario
from repro.sim.actors import colliding_actor
from repro.sim.world import GroundTruthSnapshot

if TYPE_CHECKING:  # pragma: no cover - imported for type hints only
    from repro.ads.agent import AdsAgent

__all__ = ["CameraAttacker", "RunRecorder", "SimulationResult", "Simulator"]


class CameraAttacker(Protocol):
    """Interface of a man-in-the-middle attacker on the camera link.

    ``process_frame`` receives the clean camera frame and returns the frame the
    ADS will see (possibly perturbed).  The attacker reports its state through
    the three properties so the simulator can log attack start/end events.
    """

    def process_frame(
        self, frame: CameraFrame, ego_speed_mps: float, dt: float
    ) -> CameraFrame:
        """Observe the clean frame and return the (possibly perturbed) frame."""
        ...

    @property
    def attack_active(self) -> bool:
        """Whether a perturbation is being applied this frame."""
        ...

    @property
    def target_actor_id(self) -> Optional[int]:
        """The actor whose trajectory is being hijacked, if any."""
        ...


@dataclass
class SimulationResult:
    """Everything recorded during one simulation run."""

    scenario_id: str
    events: EventLog
    steps_executed: int
    duration_s: float
    halted_on_collision: bool
    final_snapshot: GroundTruthSnapshot
    target_actor_id: Optional[int]

    @property
    def emergency_braking_occurred(self) -> bool:
        return self.events.emergency_braking_occurred

    @property
    def collision_occurred(self) -> bool:
        return self.events.collision_occurred

    def min_true_delta_from_attack(self) -> float:
        """Minimum ground-truth δ from the attack start to the end of the run.

        Falls back to the whole-run minimum when no attack was launched.
        """
        start = self.events.attack_start_step
        return self.events.min_true_delta_after(start if start is not None else 0)

    def accident_occurred(self, accident_delta_m: float = 4.0) -> bool:
        """Paper §VI-D accident criterion: min ground-truth δ below 4 m."""
        if self.collision_occurred:
            return True
        return self.min_true_delta_from_attack() < accident_delta_m


def _batched_replica(attacker: Optional[CameraAttacker]) -> Optional[PerceptionSystem]:
    """The attacker's replica when the lane can run it in lockstep.

    That needs the stock frame hook of ``CameraMitmAttackerBase`` and a fresh
    replica built from the stock stages; anything else stays a black box.
    """
    # repro.core imports this module, so it cannot be imported at module level.
    from repro.core.robotack import CameraMitmAttackerBase

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
    # Kalman rows cannot move to the loop's pool.
    return replica if stock and attacker._frame_count == 0 else None


def holds_run_state(ads: "AdsAgent") -> bool:
    """Whether the agent's camera perception holds state from an earlier run:
    tracks (whose Kalman rows live in another pool), or the burst state or
    transform history an ``ads.reset()`` clears."""
    perception = ads.perception
    return bool(perception.detector._burst_remaining or perception.tracker.tracks
                or perception.transform._history)


class Simulator:
    """One run of a driving scenario against the ADS, optionally under attack.

    The simulator drives its scenario's own :class:`~repro.sim.world.World`;
    the run's config sets the ego vehicle's acceleration limits.  It is a
    lane of the lockstep loop (see the module docstring): :meth:`run` steps
    it alone, and :class:`~repro.sim.batch.BatchSimulator` steps many
    together.  Construction draws the LiDAR and GPS seeds from ``rng``.
    """

    # Every lane step reads these.  With an instance dict, CPython 3.11 keeps
    # those reads fast only while the class's shared dict keys have room for
    # every attribute, and each instance built before the first lane starts
    # uses some of that room; a batch builds all its lanes first.
    __slots__ = (
        "scenario", "ads", "config", "attacker", "camera", "lidar", "gps_imu",
        # set by start()
        "world", "dt", "step_limit", "lidar_due", "loop_step", "recorder",
        "tracker", "detect_rows", "estimate_rows", "frame_dt", "replica",
        "attacker_done", "frame", "clean_objects", "observed_frame", "fusion",
        "planner", "last_lidar", "gps_speed", "result",
    )

    def __init__(
        self,
        scenario: DrivingScenario,
        ads: "AdsAgent",
        config: SimulationConfig | None = None,
        attacker: Optional[CameraAttacker] = None,
        rng: np.random.Generator | None = None,
    ):
        self.scenario = scenario
        self.ads = ads
        self.config = config or SimulationConfig()
        self.attacker = attacker
        rng = rng if rng is not None else np.random.default_rng()
        sensor_seeds = rng.integers(0, 2**31 - 1, size=2)
        self.camera = CameraSensor()
        self.lidar = LidarSensor(rng=np.random.default_rng(int(sensor_seeds[0])))
        self.gps_imu = GpsImuSensor(rng=np.random.default_rng(int(sensor_seeds[1])))
        ego = scenario.world.ego
        ego.max_accel_mps2 = self.config.max_accel_mps2
        ego.max_decel_mps2 = self.config.max_decel_mps2

    @property
    def max_steps(self) -> int:
        """Steps in a run that does not halt: the scenario's duration, capped
        by the config's."""
        return min(self.config.max_steps,
                   int(round(self.scenario.duration_s / self.config.dt)))

    def run(self) -> SimulationResult:
        """Execute the scenario until its duration elapses or a collision
        halts it: one lane, stepped by :func:`run_lockstep` on its own pool."""
        if holds_run_state(self.ads):
            raise ValueError(
                "Simulator needs a fresh victim agent: its camera perception already "
                "holds state from an earlier run (call ads.reset() first)"
            )
        pool = KalmanPool()
        self.start(pool, [self.config.lidar_due(step) for step in range(self.max_steps)])
        if self.result is None:
            run_lockstep([self], pool)
        return self.result

    # ------------------------------------------------------------------ #
    # The lane: started on a pool, then stepped in two halves
    # ------------------------------------------------------------------ #

    def start(self, pool: KalmanPool, lidar_due: Sequence[bool]) -> None:
        """Make this run a lane of a lockstep loop over ``pool``; ``lidar_due``
        is the loop's LiDAR schedule, at least :attr:`max_steps` long.

        ``pre_step`` (sensors -> attack -> detection -> association) feeds
        the pool, and ``post_step`` (transform -> fusion -> planning ->
        actuation -> world step -> collision check) runs after the stacked
        Kalman predict/update of its group (see :func:`run_lockstep`).  A
        lane with a batched replica also runs ``observe`` before the predict
        and ``replica_step`` before the victim's ``pre_step``.  The lane's
        ``result`` is ``None`` until it is done.
        """
        ads = self.ads
        perception = ads.perception
        self.world = self.scenario.world
        self.dt = self.config.dt
        self.step_limit = self.max_steps
        self.lidar_due = lidar_due
        self.loop_step = 0
        self.recorder = RunRecorder(self)

        # --- camera perception: the victim's, and the attacker's replica ---
        self.tracker = perception.tracker
        self.tracker.pool = pool
        self.detect_rows = perception.detector.detect_rows
        self.estimate_rows = perception.transform.estimate_rows
        self.frame_dt = perception.config.frame_dt_s
        self.replica = _batched_replica(self.attacker)
        if self.replica is not None:
            self.replica.tracker.pool = pool
        #: A batched attacker whose episode is over: no longer called.
        self.attacker_done = False
        self.frame: Optional[CameraFrame] = None
        self.clean_objects: List[tuple] = []
        #: The frame the replica observed this step (set by ``observe``).
        self.observed_frame: Optional[CameraFrame] = None

        # --- the victim's own fusion, planner, PID trim and smoother ---
        self.fusion = perception.fusion
        self.planner = ads.planner
        self.last_lidar: Optional[List[tuple]] = None
        self.gps_speed = 0.0

        self.result: Optional[SimulationResult] = None
        # Actors spawned already overlapping halt at step 0 instead of driving
        # the ego through them for the full duration.
        if self.recorder.halt_on_collision(float("inf")) or self.step_limit == 0:
            self._finish()

    # pre_step: sensing -> attack -> detection -> association

    def _sense(self) -> List[tuple]:
        """Camera, LiDAR (when due) and GPS; returns the rendered rows."""
        world = self.world
        rendered = self.camera.render_rows(world)
        if self.lidar_due[self.loop_step]:
            self.last_lidar = self.lidar.scan_rows(world)
        self.gps_speed = self.gps_imu.read(world)[2]
        return rendered

    def _camera_frame(self, rendered: List[tuple]) -> CameraFrame:
        """The rendered rows as the camera's :class:`CameraFrame`."""
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
        self.tracker.track_rows(self.detect_rows(camera_objects), upd_rows, upd_z)

    # post_step: transform -> fusion -> planning -> actuation -> world

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
        if recorder.halt_on_collision(perceived) or self.loop_step >= self.step_limit:
            self._finish()

    def _finish(self) -> None:
        self.result = self.recorder.finish()
        self.tracker.reset()
        if self.replica is not None:
            self._stop_replica()


def run_lockstep(lanes: Sequence[Simulator], pool: KalmanPool) -> None:
    """Step started lanes that share ``pool`` in lockstep until all are done.

    Each step runs these phases: (0) lanes with a batched replica sense, and
    their attackers pick the frame the replica observes; (A) one stacked
    Kalman predict over every live victim and replica track of the active
    lanes; (R) the replicas' detection and association, and one stacked
    update of their tracks; (B) per-lane sensing, attack, detection, and
    association (collecting matched measurements); (C) one stacked Kalman
    update of the victims' tracks; (D) per-lane world-estimation, fusion,
    planning, actuation, and world advance.  Lanes that halt (collision) or
    exhaust their duration drop out of the active set.
    """
    active = list(lanes)
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
        active = [lane for lane in active if lane.result is None]
        split = [lane for lane in split if lane.replica is not None]


class RunRecorder:
    """The events and traces of one run, read off its live world.

    A lane keeps its bookkeeping through it, at fixed points of a step:
    :meth:`log_attack` after the attacker saw the frame, :meth:`record_step`
    once the ADS has decided (before the world advances),
    :meth:`halt_on_collision` after every world step (and once before the
    first), and :meth:`finish` when the run ends.
    """

    def __init__(self, simulator: Simulator):
        scenario = simulator.scenario
        self.world = scenario.world
        self.road = scenario.road
        self.scenario_id = scenario.scenario_id
        self.scenario_target_id = scenario.target_actor_id
        self.attacker = simulator.attacker
        self.safety_model = SafetyModel(
            comfortable_decel_mps2=simulator.config.comfortable_decel_mps2
        )
        self.events = EventLog()
        self.attack_was_active = False
        self.emergency_was_active = False
        self.halted = False

    def target_id(self) -> Optional[int]:
        """The attacker's target while it has one, else the scenario's."""
        if self.attacker is not None and self.attacker.target_actor_id is not None:
            return self.attacker.target_actor_id
        return self.scenario_target_id

    def _event(self, kind: EventKind, **details: float) -> None:
        self.events.record(SimulationEvent(
            kind=kind, time_s=self.world.time_s, step_index=self.world.step_index,
            details=details,
        ))

    def log_attack(self) -> None:
        """Log an attack start or end when the attacker's state flipped."""
        active = bool(self.attacker.attack_active)
        if active and not self.attack_was_active:
            self._event(EventKind.ATTACK_STARTED)
        elif not active and self.attack_was_active:
            self._event(EventKind.ATTACK_ENDED)
        self.attack_was_active = active

    def record_step(self, emergency: bool, perceived_delta: float) -> None:
        """Log an emergency-brake onset and append the step's trace entry."""
        if emergency and not self.emergency_was_active:
            self._event(EventKind.EMERGENCY_BRAKE, perceived_delta_m=perceived_delta)
        self.emergency_was_active = emergency
        self._trace(perceived_delta)

    def _trace(self, perceived_delta: float) -> None:
        world = self.world
        self.events.record_step(
            true_delta=ground_truth_delta(world, self.road, self.safety_model,
                                          self.target_id()),
            perceived_delta=perceived_delta,
            ego_speed=world.ego.vx,
        )

    def halt_on_collision(self, perceived_delta: float) -> bool:
        """On a collision, halt: the impact state still gets a trace entry
        (so the Fig-6 traces and ``min_true_delta_from_attack`` include the
        value at impact, and the traces are one entry longer than the steps),
        then COLLISION and SIMULATION_HALTED are logged."""
        world = self.world
        actor_id = colliding_actor(world.ego, world.actors)
        if actor_id is None:
            return False
        self._trace(perceived_delta)
        self._event(EventKind.COLLISION, actor_id=float(actor_id))
        self._event(EventKind.SIMULATION_HALTED)
        self.halted = True
        return True

    def finish(self) -> SimulationResult:
        """End the run: close an attack still active (so attack-duration
        consumers never see an open interval) and capture the result."""
        if self.attack_was_active:
            self._event(EventKind.ATTACK_ENDED)
        world = self.world
        return SimulationResult(
            scenario_id=self.scenario_id,
            events=self.events,
            steps_executed=world.step_index,
            duration_s=world.time_s,
            halted_on_collision=self.halted,
            final_snapshot=world.snapshot(),
            target_actor_id=self.target_id(),
        )
