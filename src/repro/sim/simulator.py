"""The simulation loop.

Each step (one camera frame at 15 Hz) a run:

1. renders the sensor measurements from the live world,
2. lets the (optional) man-in-the-middle attacker observe and perturb the
   camera frame (the camera's rendered rows) — the attack surface of paper
   §III-B,
3. runs the victim ADS on the (possibly perturbed) sensors,
4. applies the ADS actuation to the ego vehicle and advances all actors,
5. records the run: the safety events (emergency braking, collisions,
   attack start/end) and the ground-truth / perceived safety-potential and
   ego-speed traces the evaluation harness scores.

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
and ``ads.actuate``; ``World.step`` advances the world.  The lane keeps the
run record itself: it logs each event and appends each step's trace entry
straight into the lists its :class:`SimulationResult` owns, and the result
answers the paper's hazard queries from them.

The victim's camera perception must be fresh: a detector, tracker or
transform that carries state from an earlier run is rejected (call
``ads.reset()`` first), because the lane moves the tracker onto the loop's
Kalman pool, which cannot take over another pool's rows.  When the run ends
the tracker returns its rows to the pool.

Attackers
---------

A lane's attacker is a :class:`~repro.core.robotack.CameraMitmAttackerBase`
(RoboTack, its baselines, or the oracle's scripted collection attacker), and
its ``perception`` is the lane's camera-only *replica*: the lane calls the
replica's own detector, tracker and transform cores, and the replica's
tracker joins the pool.  The attacker works on the rows the lane carries:
its frame is the camera's rendered rows and its world state the replica's
estimate rows, and the rows it delivers are what the victim's detector
reads.  The attacker's split frame hook, the lane's one attacker contract,
is called in its two halves around the replica step:

* before the stacked predict,
  :meth:`~repro.core.robotack.CameraMitmAttackerBase.frame_for_replica` picks
  the frame the replica observes; a running attack perturbs it with the
  replica's target track as the previous frame left it;
* after the replicas' stacked update,
  :meth:`~repro.core.robotack.CameraMitmAttackerBase.frame_to_deliver`
  decides on a launch from this frame's estimate rows, and a launch reads
  this frame's updated target track.

Once the attacker's episode is over
(:attr:`~repro.core.robotack.CameraMitmAttackerBase.episode_over`) the
replica's Kalman rows are freed and the attacker is no longer called: it
would pass every frame through unchanged.  Like the victim, the attacker
must be fresh: :func:`check_fresh` rejects one that has seen frames, and any
other kind of attacker, before a run draws any seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.ads.safety import SafetyModel, ground_truth_delta
from repro.perception.kalman import KalmanPool
from repro.perception.pipeline import PerceptionSystem
from repro.sensors.camera import CameraSensor
from repro.sensors.gps_imu import GpsImuSensor
from repro.sensors.lidar import LidarSensor
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, SimulationEvent
from repro.sim.scenarios import DrivingScenario
from repro.sim.actors import colliding_actor

if TYPE_CHECKING:  # pragma: no cover - imported for type hints only
    from repro.ads.agent import AdsAgent
    from repro.core.robotack import CameraMitmAttackerBase

__all__ = ["SimulationResult", "Simulator"]


@dataclass
class SimulationResult:
    """Everything recorded during one simulation run.

    The traces hold one entry per step, taken once the ADS has decided and
    before the world advances; a run halted by a collision appends one more,
    the impact state, so its traces are one entry longer than its steps.
    The run's final ground truth is its scenario's world, which the lane
    stops stepping when the run ends.
    """

    scenario_id: str
    #: The run's events, in recording order.
    events: List[SimulationEvent]
    #: Ground-truth safety potential per step, to the attack target when
    #: known, otherwise to the nearest in-path actor.
    true_delta_trace: List[float]
    #: Safety potential as perceived by the ADS per step.
    perceived_delta_trace: List[float]
    #: Ego speed per step.
    ego_speed_trace: List[float]
    steps_executed: int
    duration_s: float
    halted_on_collision: bool
    target_actor_id: Optional[int]

    def first_event(self, kind: EventKind) -> Optional[SimulationEvent]:
        """The earliest event of the given kind, if any."""
        return next((event for event in self.events if event.kind is kind), None)

    @property
    def emergency_braking_occurred(self) -> bool:
        return self.first_event(EventKind.EMERGENCY_BRAKE) is not None

    @property
    def collision_occurred(self) -> bool:
        return self.first_event(EventKind.COLLISION) is not None

    def min_true_delta_from_attack(self) -> float:
        """Minimum ground-truth δ from the attack start to the end of the run.

        This is the quantity plotted in Fig. 6 ("minimum safety potential of
        the EV measured from the start time of the attack to the end of the
        driving scenario").  Falls back to the whole-run minimum when no
        attack was launched, and is ``inf`` when the trace is empty.
        """
        start = self.first_event(EventKind.ATTACK_STARTED)
        tail = self.true_delta_trace[start.step_index if start is not None else 0:]
        return min(tail) if tail else float("inf")

    def accident_occurred(self, accident_delta_m: float = 4.0) -> bool:
        """Paper §VI-D accident criterion: min ground-truth δ below 4 m."""
        if self.collision_occurred:
            return True
        return self.min_true_delta_from_attack() < accident_delta_m


def holds_run_state(perception: PerceptionSystem) -> bool:
    """Whether camera perception holds state from an earlier run: tracks
    (whose Kalman rows live in another pool), or the burst state or
    transform history a reset clears."""
    return bool(perception.detector._burst_remaining or perception.tracker.tracks
                or perception.transform._history)


def check_fresh(ads: "AdsAgent", attacker: Optional["CameraMitmAttackerBase"],
                engine: str, whose: str) -> None:
    """Reject a run the loop cannot start, with a one-line ``ValueError``: a
    victim agent or an attacker that holds state from an earlier run, or an
    attacker that is not a ``CameraMitmAttackerBase``.  ``engine`` and
    ``whose`` name the run in the message ("Simulator", "its")."""
    # repro.core imports this module, so it cannot be imported at module level.
    from repro.core.robotack import CameraMitmAttackerBase

    if holds_run_state(ads.perception):
        raise ValueError(
            f"{engine} needs a fresh victim agent: {whose} camera perception already "
            "holds state from an earlier run (call ads.reset() first)"
        )
    if attacker is None:
        return
    if not isinstance(attacker, CameraMitmAttackerBase):
        raise ValueError(
            f"{engine} runs CameraMitmAttackerBase attackers only: {whose} attacker "
            f"is a {type(attacker).__name__}"
        )
    if attacker._frame_count or holds_run_state(attacker.perception):
        raise ValueError(
            f"{engine} needs a fresh attacker: {whose} attacker has already seen "
            "frames (build a new one)"
        )


class Simulator:
    """One run of a driving scenario against the ADS, optionally under attack.

    The simulator drives its scenario's own :class:`~repro.sim.world.World`;
    the run's config sets the ego vehicle's acceleration limits.  It is a
    lane of the lockstep loop (see the module docstring): :meth:`run` steps
    it alone, and :class:`~repro.sim.batch.BatchSimulator` steps many
    together.  :meth:`start` draws the LiDAR and GPS seeds from ``rng``.
    """

    # Every lane step reads these.  With an instance dict, CPython 3.11 keeps
    # those reads fast only while the class's shared dict keys have room for
    # every attribute, and each instance built before the first lane starts
    # uses some of that room; a batch builds all its lanes first.
    __slots__ = (
        "scenario", "ads", "config", "attacker", "rng",
        # set by start()
        "camera", "lidar", "gps_imu", "world", "dt", "step_limit", "lidar_due",
        "loop_step", "tracker", "detect_rows", "estimate_rows",
        "frame_dt", "replica", "observed_frame",
        "fusion", "planner", "last_lidar", "gps_speed", "result",
        # the run record, which the result takes over
        "safety_model", "events", "true_delta_trace", "perceived_delta_trace",
        "ego_speed_trace", "attack_was_active", "emergency_was_active",
    )

    def __init__(
        self,
        scenario: DrivingScenario,
        ads: "AdsAgent",
        config: SimulationConfig | None = None,
        attacker: Optional["CameraMitmAttackerBase"] = None,
        rng: np.random.Generator | None = None,
    ):
        self.scenario = scenario
        self.ads = ads
        self.config = config or SimulationConfig()
        self.attacker = attacker
        self.rng = rng if rng is not None else np.random.default_rng()
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
        check_fresh(self.ads, self.attacker, "Simulator", "its")
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
        Kalman predict/update of its group (see :func:`run_lockstep`).  An
        attacked lane also runs ``observe`` before the predict and
        ``replica_step`` before the victim's ``pre_step``, until its
        attacker's episode is over.  The lane's ``result`` is ``None`` until
        it is done.
        """
        sensor_seeds = self.rng.integers(0, 2**31 - 1, size=2)
        self.camera = CameraSensor()
        self.lidar = LidarSensor(rng=np.random.default_rng(int(sensor_seeds[0])))
        self.gps_imu = GpsImuSensor(rng=np.random.default_rng(int(sensor_seeds[1])))
        ads = self.ads
        perception = ads.perception
        self.world = self.scenario.world
        self.dt = self.config.dt
        self.step_limit = self.max_steps
        self.lidar_due = lidar_due
        self.loop_step = 0

        # --- the run record ---
        self.safety_model = SafetyModel(
            comfortable_decel_mps2=self.config.comfortable_decel_mps2
        )
        self.events: List[SimulationEvent] = []
        self.true_delta_trace: List[float] = []
        self.perceived_delta_trace: List[float] = []
        self.ego_speed_trace: List[float] = []
        self.attack_was_active = False
        self.emergency_was_active = False

        # --- camera perception: the victim's, and the attacker's replica ---
        self.tracker = perception.tracker
        self.tracker.pool = pool
        self.detect_rows = perception.detector.detect_rows
        self.estimate_rows = perception.transform.estimate_rows
        self.frame_dt = perception.config.frame_dt_s
        #: The attacker's replica, until its episode is over.
        self.replica = None if self.attacker is None else self.attacker.perception
        if self.replica is not None:
            self.replica.tracker.pool = pool
        #: The camera rows the replica observed this step (set by ``observe``).
        self.observed_frame: Optional[List[tuple]] = None

        # --- the victim's own fusion, planner, PID trim and smoother ---
        self.fusion = perception.fusion
        self.planner = ads.planner
        self.last_lidar: Optional[List[tuple]] = None
        self.gps_speed = 0.0

        self.result: Optional[SimulationResult] = None
        # Actors spawned already overlapping halt at step 0 instead of driving
        # the ego through them for the full duration.
        halted = self._halt_on_collision(float("inf"))
        if halted or self.step_limit == 0:
            self._finish(halted)

    # pre_step: sensing -> attack -> detection -> association

    def _sense(self) -> List[tuple]:
        """Camera, LiDAR (when due) and GPS; returns the rendered rows."""
        world = self.world
        rendered = self.camera.render_rows(world)
        if self.lidar_due[self.loop_step]:
            self.last_lidar = self.lidar.scan_rows(world)
        self.gps_speed = self.gps_imu.read(world)[2]
        return rendered

    def observe(self) -> None:
        """Attacked lane, before the predict: sense, and let the attacker
        pick the rows its replica observes (a running attack perturbs them
        with the target track as the previous frame left it)."""
        self.observed_frame = self.attacker.frame_for_replica(self._sense())
        if self.attacker.episode_over:
            self._stop_replica()

    def replica_step(self, upd_rows: List[int], upd_z: List[tuple]) -> None:
        """Attacked lane: the replica's detection and association on the
        observed rows."""
        replica = self.replica
        replica.tracker.track_rows(replica.detector.detect_rows(self.observed_frame),
                                   upd_rows, upd_z)

    def _stop_replica(self) -> None:
        self.replica.tracker.reset()
        self.replica = None

    def pre_step(self, upd_rows: List[int], upd_z: List[tuple]) -> None:
        """Sensing (unless ``observe`` did it) -> attack -> victim detection
        -> association."""
        camera_objects = self.observed_frame
        if camera_objects is None:
            # No attacker, or its episode is over: the clean frame.
            camera_objects = self._sense()
        else:
            # Deliver, given the replica's estimates from this frame.
            self.observed_frame = None
            replica = self.replica
            if replica is not None:
                attacker = self.attacker
                estimates = () if attacker.attack_active else replica.transform.estimate_rows(
                    replica.tracker.observed
                )
                camera_objects = attacker.frame_to_deliver(camera_objects, estimates,
                                                           self.gps_speed)
                if attacker.episode_over:
                    self._stop_replica()
            self._log_attack()
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
        if emergency and not self.emergency_was_active:
            self._event(EventKind.EMERGENCY_BRAKE, perceived_delta_m=perceived)
        self.emergency_was_active = emergency
        self._trace(perceived)
        self.world.step(self.dt, acceleration)
        self.loop_step += 1
        halted = self._halt_on_collision(perceived)
        if halted or self.loop_step >= self.step_limit:
            self._finish(halted)

    # The run record, read off the live world at fixed points of a step: an
    # attack flip after the attacker saw the frame, an emergency-brake onset
    # and the step's trace entry once the ADS has decided (before the world
    # advances), a collision after every world step (and once before the
    # first), and the result when the run ends.

    def _target_id(self) -> Optional[int]:
        """The attacker's target while it has one, else the scenario's."""
        attacker = self.attacker
        if attacker is not None and attacker.target_actor_id is not None:
            return attacker.target_actor_id
        return self.scenario.target_actor_id

    def _event(self, kind: EventKind, **details: float) -> None:
        world = self.world
        self.events.append(SimulationEvent(
            kind=kind, time_s=world.time_s, step_index=world.step_index, details=details,
        ))

    def _log_attack(self) -> None:
        """Log an attack start or end when the attacker's state flipped."""
        active = bool(self.attacker.attack_active)
        if active and not self.attack_was_active:
            self._event(EventKind.ATTACK_STARTED)
        elif not active and self.attack_was_active:
            self._event(EventKind.ATTACK_ENDED)
        self.attack_was_active = active

    def _trace(self, perceived_delta: float) -> None:
        """Append the step's ground-truth δ, perceived δ and ego speed."""
        world = self.world
        self.true_delta_trace.append(float(ground_truth_delta(
            world, self.scenario.road, self.safety_model, self._target_id()
        )))
        self.perceived_delta_trace.append(float(perceived_delta))
        self.ego_speed_trace.append(float(world.ego.vx))

    def _halt_on_collision(self, perceived_delta: float) -> bool:
        """On a collision, halt: the impact state still gets a trace entry
        (so the Fig-6 traces and ``min_true_delta_from_attack`` include the
        value at impact), then COLLISION and SIMULATION_HALTED are logged."""
        world = self.world
        actor_id = colliding_actor(world.ego, world.actors)
        if actor_id is None:
            return False
        self._trace(perceived_delta)
        self._event(EventKind.COLLISION, actor_id=float(actor_id))
        self._event(EventKind.SIMULATION_HALTED)
        return True

    def _finish(self, halted: bool) -> None:
        """End the run: close an attack still active (so attack-duration
        consumers never see an open interval), capture the result, and free
        the lane's Kalman rows."""
        if self.attack_was_active:
            self._event(EventKind.ATTACK_ENDED)
        world = self.world
        self.result = SimulationResult(
            scenario_id=self.scenario.scenario_id,
            events=self.events,
            true_delta_trace=self.true_delta_trace,
            perceived_delta_trace=self.perceived_delta_trace,
            ego_speed_trace=self.ego_speed_trace,
            steps_executed=world.step_index,
            duration_s=world.time_s,
            halted_on_collision=halted,
            target_actor_id=self._target_id(),
        )
        self.tracker.reset()
        if self.replica is not None:
            self._stop_replica()


def run_lockstep(lanes: Sequence[Simulator], pool: KalmanPool) -> None:
    """Step started lanes that share ``pool`` in lockstep until all are done.

    Each step runs these phases: (0) attacked lanes sense, and their
    attackers pick the frame the replica observes; (A) one stacked
    Kalman predict over every live victim and replica track of the active
    lanes; (R) the replicas' detection and association, and one stacked
    update of their tracks; (B) per-lane sensing, attack, detection, and
    association (collecting matched measurements); (C) one stacked Kalman
    update of the victims' tracks; (D) per-lane world-estimation, fusion,
    planning, actuation, and world advance.  Lanes that halt (collision) or
    exhaust their duration drop out of the active set.
    """
    active = list(lanes)
    attacked = [lane for lane in active if lane.replica is not None]
    while active:
        # Phase 0: the attacker picks the frame its replica observes.
        for lane in attacked:
            lane.observe()
        attacked = [lane for lane in attacked if lane.replica is not None]

        # Phase A: stacked predict for every live track.
        pool.predict_tracks([lane.tracker for lane in active]
                            + [lane.replica.tracker for lane in attacked])

        # Phase R: the replicas' detection, association and update; a
        # launch decision in phase B reads this frame's updated tracks.
        if attacked:
            rep_rows: List[int] = []
            rep_z: List[tuple] = []
            for lane in attacked:
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
        attacked = [lane for lane in attacked if lane.replica is not None]
