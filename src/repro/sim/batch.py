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

* **Seeding** — each lane draws ``sensor_seeds = rng.integers(0, 2**31-1,
  size=2)`` from its spec's generator, exactly as ``Simulator.__init__`` does,
  so the LiDAR/GPS streams are seeded identically.
* **Per-consumer streams** — every stochastic consumer (detector, LiDAR, GPS,
  attacker) owns its own ``np.random.Generator``, so reordering *across*
  consumers cannot change any draw.
* **Buffered sensor noise** — the LiDAR/GPS generators are consumed by one
  bulk ``Generator.normal(loc, scale, size=n)`` draw per lane at construction.
  NumPy's Generator produces bit-identical values for a size-``n`` vector draw
  and ``n`` sequential scalar draws with the same ``loc``/``scale`` (both walk
  the same ziggurat stream), so buffering is exact.  When the GPS position and
  speed sigmas differ the buffer falls back to sequential scalar draws.  The
  buffers are ``array("d")`` (8 bytes a value; indexing yields the same
  Python float a list would hold), and the GPS one keeps only the speed
  draws, the one GPS value the victim reads.
* **Shared victim stages** — each lane calls its victim agent's own objects
  on the plain-float rows it carries: the detector's ``detect_rows``, the
  tracker's ``track_rows``, the transform's ``estimate_rows``, the fusion
  policy's ``fuse`` (:class:`RowFusionPolicy`), ``ads.planner.plan_rows`` and
  ``ads.actuate`` — the code the scalar ``AdsAgent.step`` runs through its
  dataclass adapters.
* **World-side ports** — camera rendering, LiDAR and GPS sensing, actor
  kinematics and the ground-truth safety potential are literal ports of the
  scalar code with identical evaluation order (including float
  left-associativity).

Restrictions (the scalar path has none of these):

* every lane shares one :class:`SimulationConfig` (lockstep needs one ``dt``);
* the victim's camera perception must be fresh — a detector, tracker or
  transform that carries state from an earlier run is rejected (call
  ``ads.reset()`` first): a lane moves its tracker onto the shared Kalman
  pool, which cannot take over another pool's rows.  When the run ends the
  tracker returns its rows to the pool;
* no two specs may carry the same victim agent or the same attacker object:
  two lanes would drive one tracker, planner and attack record.

The last two are checked for every spec before any lane is built, so a
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

RoboTack and its baselines (:class:`CameraMitmAttackerBase` with the stock
frame hook and a fresh, stock :class:`PerceptionSystem` replica) run their
camera-only replica in lockstep too: the lane calls the replica's own
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

import math
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.ads.safety import SafetyModel
from repro.core.robotack import CameraMitmAttackerBase
from repro.geometry.bbox import BoundingBox
from repro.geometry.vec import Vec2
from repro.perception.detection import SimulatedDetector, frame_rows
from repro.perception.fusion import RowFusionPolicy
from repro.perception.kalman import KalmanPool
from repro.perception.mot import MultiObjectTracker
from repro.perception.pipeline import PerceptionSystem
from repro.perception.transforms import ImageToWorldTransform
from repro.sensors.camera import CameraFrame, CameraObject, CameraSensor
from repro.sensors.gps_imu import GpsImuSensor
from repro.sensors.lidar import LidarSensor
from repro.sim.actors import ActorKind, ActorSnapshot
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, EventLog, SimulationEvent
from repro.sim.scenarios import DrivingScenario
from repro.sim.simulator import CameraAttacker, SimulationResult, Simulator
from repro.sim.world import GroundTruthSnapshot

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.ads.agent import AdsAgent

__all__ = ["BatchRunSpec", "BatchSimulator"]

_first = itemgetter(0)
#: Enum attribute and enum-keyed dict lookups are costly per object per step.
_VEHICLE = ActorKind.VEHICLE

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

# --------------------------------------------------------------------------- #
# Plain-float ports of the world-side state
# --------------------------------------------------------------------------- #


class _FastRoute:
    """Plain-float port of :meth:`WaypointRoute.advance` (bit-identical)."""

    __slots__ = ("xs", "ys", "speeds", "holds", "n", "seg", "px", "py", "vx", "vy", "hold")

    def __init__(self, route):
        waypoints = route.waypoints
        self.xs = [w.position.x for w in waypoints]
        self.ys = [w.position.y for w in waypoints]
        self.speeds = [w.speed_mps for w in waypoints]
        self.holds = [w.hold_s for w in waypoints]
        self.n = len(waypoints)
        self.seg = route._segment_index
        self.px = route._position.x
        self.py = route._position.y
        self.vx = route._velocity.x
        self.vy = route._velocity.y
        self.hold = route._hold_remaining_s

    def advance(self, dt: float) -> None:
        remaining = dt
        while remaining > 1e-12:
            if self.hold > 0.0:
                waited = self.hold if self.hold < remaining else remaining
                self.hold -= waited
                remaining -= waited
                self.vx = 0.0
                self.vy = 0.0
                continue
            if self.seg >= self.n - 1:
                self.vx = 0.0
                self.vy = 0.0
                return
            target = self.seg + 1
            dx = self.xs[target] - self.px
            dy = self.ys[target] - self.py
            distance = math.hypot(dx, dy)
            speed = self.speeds[target]
            if speed <= 0.0 or distance <= 1e-9:
                self.px = self.xs[target]
                self.py = self.ys[target]
                self.seg = target
                self.hold = self.holds[target]
                self.vx = 0.0
                self.vy = 0.0
                continue
            time_to_target = distance / speed
            ux = dx / distance
            uy = dy / distance
            self.vx = ux * speed
            self.vy = uy * speed
            if time_to_target <= remaining:
                self.px = self.xs[target]
                self.py = self.ys[target]
                remaining -= time_to_target
                self.seg = target
                self.hold = self.holds[target]
            else:
                travel = speed * remaining
                self.px = self.px + ux * travel
                self.py = self.py + uy * travel
                remaining = 0.0
        if self.seg >= self.n - 1 and self.hold <= 0.0:
            self.vx = 0.0
            self.vy = 0.0


class _LaneActor:
    """Plain-float scripted-actor state driven by a :class:`_FastRoute`."""

    __slots__ = ("actor_id", "kind", "dims", "length", "width", "height", "half_w",
                 "route", "x", "y", "vx", "vy")

    def __init__(self, actor):
        self.actor_id = actor.actor_id
        self.kind = actor.kind
        self.dims = actor.dimensions
        self.length = actor.dimensions.length_m
        self.width = actor.dimensions.width_m
        self.height = actor.dimensions.height_m
        self.half_w = self.width / 2.0
        self.route = _FastRoute(actor.route)
        self.x = self.route.px
        self.y = self.route.py
        self.vx = self.route.vx
        self.vy = self.route.vy


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
    for role, field in (("victim agent", "ads"), ("attacker", "attacker")):
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
# One lane: the full per-run state and the scalar-equivalent step logic
# --------------------------------------------------------------------------- #


class _Lane:
    """All state of one simulated run, held as plain floats.

    The constructor replicates ``Simulator.__init__``'s RNG draws and extracts
    every parameter the ported world stages need from the scenario; perception,
    planning and actuation run on the agent's own objects.  The per-step work
    is split into ``pre_step`` (sensors → attack → detection → association;
    feeds the shared Kalman pool) and ``post_step`` (transform → fusion →
    planning → actuation → world advance), with the batched Kalman
    predict/update of its lockstep group running between them (see
    :class:`BatchSimulator`).  A lane with a batched replica also runs
    ``observe`` before the predict and ``replica_step`` before the victim's
    ``pre_step``.
    """

    def __init__(self, spec: BatchRunSpec, config: SimulationConfig, pool: KalmanPool):
        scenario = spec.scenario
        ads = spec.ads
        rng = spec.rng if spec.rng is not None else np.random.default_rng()
        sensor_seeds = rng.integers(0, 2**31 - 1, size=2)

        perception = ads.perception
        self.dt = config.dt
        self.max_steps = min(config.max_steps, int(round(scenario.duration_s / self.dt)))
        self.lidar_due = [config.lidar_due(step) for step in range(self.max_steps)]

        # --- camera perception: the victim's, and the attacker's replica ---
        self.tracker = perception.tracker
        self.tracker.pool = pool
        self.detect_rows = perception.detector.detect_rows
        self.track_rows = self.tracker.track_rows
        self.estimate_rows = perception.transform.estimate_rows
        self.frame_dt = perception.config.frame_dt_s
        self.attacker = spec.attacker
        self.replica = _batched_replica(spec.attacker)
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

        # --- road ---
        ego_lane = ads.road.ego_lane
        self.lane_lo = ego_lane.y_min
        self.lane_hi = ego_lane.y_max

        # --- world state ---
        world = scenario.world
        ego = world.ego
        self.ego_id = ego.actor_id
        self.ego_dims = ego.dimensions
        self.ego_len = ego.dimensions.length_m
        self.ego_w = ego.dimensions.width_m
        self.ego_half_len = self.ego_len / 2.0
        self.ego_max_accel = ego.max_accel_mps2
        self.ego_max_decel = ego.max_decel_mps2
        self.ego_x = ego.position.x
        self.ego_y = ego.position.y
        self.ego_speed = ego.speed_mps
        self.actors = [_LaneActor(actor) for actor in world.actors]
        self.time_s = world.time_s
        self.step = world.step_index
        self.loop_step = 0

        # --- camera constants (stateless; mirrors Simulator's CameraSensor()) ---
        camera = CameraSensor()
        intr = camera.projection.intrinsics
        self.cam_max_range = camera.max_range_m
        self.cam_min_d = camera.projection.MIN_DISTANCE_M
        self.focal = intr.focal_px
        self.img_cx = intr.image_cx
        self.img_cy = intr.image_cy
        self.img_w = intr.image_width
        self.cam_h = intr.camera_height_m

        # --- buffered sensor noise (bulk draws; see module docstring) ---
        lidar = LidarSensor(rng=np.random.default_rng(int(sensor_seeds[0])))
        gps = GpsImuSensor(rng=np.random.default_rng(int(sensor_seeds[1])))
        self.lidar_v_range = lidar.vehicle_range_m
        self.lidar_p_range = lidar.pedestrian_range_m
        n_scans = sum(1 for due in self.lidar_due if due)
        n_draws = 2 * len(self.actors) * n_scans
        self.lidar_noise = array("d", lidar._rng.normal(
            0.0, lidar.position_noise_m, size=n_draws
        ).tobytes())
        self.lidar_cursor = 0
        # Only the speed noise (every third GPS draw, after x and y) is read.
        if gps.position_noise_m == gps.speed_noise_mps:
            self.gps_noise = array("d", gps._rng.normal(
                0.0, gps.speed_noise_mps, size=3 * self.max_steps
            )[2::3].tobytes())
        else:  # pragma: no cover - non-default sensor config
            sigmas = (gps.position_noise_m, gps.position_noise_m, gps.speed_noise_mps)
            self.gps_noise = array("d", [
                float(gps._rng.normal(0.0, sigmas[i % 3]))
                for i in range(3 * self.max_steps)
            ][2::3])

        # --- run bookkeeping ---
        sim_safety = SafetyModel(comfortable_decel_mps2=config.comfortable_decel_mps2)
        self.sim_reaction = sim_safety.reaction_time_s
        self.sim_comfort = sim_safety.comfortable_decel_mps2
        self.scenario_id = scenario.scenario_id
        self.scenario_target_id = scenario.target_actor_id
        self.events = EventLog()
        self.attack_was_active = False
        self.emergency_was_active = False
        self.halted = False
        self.done = False
        self.last_lidar: Optional[List[tuple]] = None
        self.gps_speed = 0.0

        # Mirror the scalar pre-loop collision check: actors spawned already
        # overlapping halt at step 0 instead of running the full duration.
        hit = self._check_collision()
        if hit is not None:
            self._halt(hit, float("inf"))
        elif self.max_steps == 0:
            self._finish()

    # ------------------------------------------------------------------ #
    # Sensors (ports of CameraSensor.capture / LidarSensor.scan / GpsImu)
    # ------------------------------------------------------------------ #

    def _render_objects(self) -> List[tuple]:
        """Camera render: (distance, lateral, aid, kind, cx, cy, w, h, oh, ow)."""
        camera_x = self.ego_x + self.ego_half_len
        ego_y = self.ego_y
        min_d = self.cam_min_d
        focal = self.focal
        objects = []
        for actor in self.actors:
            distance = actor.x - camera_x
            if distance <= min_d or distance > self.cam_max_range:
                continue
            lateral = actor.y - ego_y
            cx_fov = self.img_cx - lateral * focal / distance
            if not 0.0 <= cx_fov <= self.img_w:
                continue
            d = distance if distance > min_d else min_d
            scale = focal / d
            width_px = actor.width * scale
            height_px = actor.height * scale
            cx = self.img_cx - lateral * scale
            ground_y = self.img_cy + self.cam_h * scale
            cy = ground_y - (actor.height / 2.0) * scale
            objects.append((distance, lateral, actor.actor_id, actor.kind,
                            cx, cy, width_px, height_px, actor.height, actor.width))
        objects.sort(key=_first)
        return objects

    def _scan(self) -> None:
        """LiDAR scan into ``last_lidar``: (distance, lateral, aid, kind, vx)."""
        ego_front = self.ego_x + self.ego_half_len
        ego_y = self.ego_y
        noise = self.lidar_noise
        cursor = self.lidar_cursor
        detections = []
        for actor in self.actors:
            distance = actor.x - ego_front
            max_range = (
                self.lidar_v_range if actor.kind is _VEHICLE else self.lidar_p_range
            )
            if distance <= 0.0 or distance > max_range:
                continue
            noise_x = noise[cursor]
            noise_y = noise[cursor + 1]
            cursor += 2
            detections.append((distance + noise_x, actor.y - ego_y + noise_y,
                               actor.actor_id, actor.kind, actor.vx))
        self.lidar_cursor = cursor
        detections.sort(key=_first)
        self.last_lidar = detections

    # ------------------------------------------------------------------ #
    # pre_step: sensing -> attack -> detection -> association
    # ------------------------------------------------------------------ #

    def _sense(self) -> List[tuple]:
        """Camera, LiDAR (when due) and GPS; returns the rendered objects."""
        rendered = self._render_objects()
        if self.lidar_due[self.loop_step]:
            self._scan()
        gps = self.ego_speed + self.gps_noise[self.loop_step]
        self.gps_speed = gps if gps > 0.0 else 0.0
        return rendered

    def _camera_frame(self, rendered: List[tuple]) -> CameraFrame:
        """The rendered objects as the scalar camera's :class:`CameraFrame`."""
        return CameraFrame(
            time_s=self.time_s,
            frame_index=self.step,
            objects=tuple(
                CameraObject(
                    actor_id=obj[2],
                    kind=obj[3],
                    bbox=BoundingBox(cx=obj[4], cy=obj[5], width=obj[6], height=obj[7]),
                    distance_m=obj[0],
                    lateral_m=obj[1],
                    object_height_m=obj[8],
                    object_width_m=obj[9],
                )
                for obj in rendered
            ),
        )

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
        objects = self.clean_objects if observed is self.frame else frame_rows(observed)
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
            self._log_attack()
            camera_objects = (self.clean_objects if delivered is self.frame
                              else frame_rows(delivered))
        else:
            rendered = self._sense()
            if self.attacker is None or self.attacker_done:
                camera_objects = rendered
            else:
                delivered = self.attacker.process_frame(
                    self._camera_frame(rendered), ego_speed_mps=self.gps_speed, dt=self.dt
                )
                self._log_attack()
                camera_objects = frame_rows(delivered)
        self.track_rows(self.detect_rows(camera_objects), upd_rows, upd_z)

    def _log_attack(self) -> None:
        active = bool(self.attacker.attack_active)
        if active and not self.attack_was_active:
            self.events.record(SimulationEvent(
                kind=EventKind.ATTACK_STARTED, time_s=self.time_s, step_index=self.step
            ))
        elif not active and self.attack_was_active:
            self.events.record(SimulationEvent(
                kind=EventKind.ATTACK_ENDED, time_s=self.time_s, step_index=self.step
            ))
        self.attack_was_active = active

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

        # --- events + traces (pre-step time/step, like the scalar loop) ---
        if emergency and not self.emergency_was_active:
            self.events.record(SimulationEvent(
                kind=EventKind.EMERGENCY_BRAKE,
                time_s=self.time_s,
                step_index=self.step,
                details={"perceived_delta_m": perceived},
            ))
        self.emergency_was_active = emergency
        self.events.record_step(
            true_delta=self._true_delta(),
            perceived_delta=perceived,
            ego_speed=self.ego_speed,
        )

        # --- world advance (EgoVehicle.apply_control + route advance) ---
        dt = self.dt
        accel = acceleration
        neg_decel = -self.ego_max_decel
        if neg_decel > accel:
            accel = neg_decel
        if self.ego_max_accel < accel:
            accel = self.ego_max_accel
        new_speed = self.ego_speed + accel * dt
        if not new_speed > 0.0:
            new_speed = 0.0
        average = (self.ego_speed + new_speed) / 2.0
        self.ego_x = self.ego_x + average * dt
        self.ego_speed = new_speed
        for actor in self.actors:
            route = actor.route
            route.advance(dt)
            actor.x = route.px
            actor.y = route.py
            actor.vx = route.vx
            actor.vy = route.vy
        self.time_s += dt
        self.step += 1
        self.loop_step += 1

        hit = self._check_collision()
        if hit is not None:
            self._halt(hit, perceived)
        elif self.loop_step >= self.max_steps:
            self._finish()

    # ------------------------------------------------------------------ #
    # Ground truth, collision, halt, result
    # ------------------------------------------------------------------ #

    def _current_target_id(self) -> Optional[int]:
        if self.attacker is not None and self.attacker.target_actor_id is not None:
            return self.attacker.target_actor_id
        return self.scenario_target_id

    def _true_delta(self) -> float:
        """Port of ``ground_truth_delta`` over the lane's plain-float state."""
        target_id = self._current_target_id()
        candidate = None
        if target_id is not None:
            for actor in self.actors:
                if actor.actor_id == target_id:
                    if actor.x > self.ego_x:
                        margin = 0.3 + actor.half_w
                        if self.lane_lo - margin <= actor.y <= self.lane_hi + margin:
                            candidate = actor
                    break
        if candidate is None:
            ego_front = self.ego_x + self.ego_half_len
            best_x = 0.0
            for actor in self.actors:
                if actor.x > ego_front:
                    margin = 0.3 + actor.half_w
                    if self.lane_lo - margin <= actor.y <= self.lane_hi + margin:
                        if candidate is None or actor.x < best_x:
                            candidate = actor
                            best_x = actor.x
        if candidate is None:
            return float("inf")
        gap = abs(candidate.x - self.ego_x) - (self.ego_len + candidate.length) / 2.0
        sp = self.ego_speed
        if not sp > 0.0:
            sp = 0.0
        return gap - (sp * self.sim_reaction + sp * sp / (2.0 * self.sim_comfort))

    def _check_collision(self) -> Optional[int]:
        ego_x = self.ego_x
        ego_y = self.ego_y
        for actor in self.actors:
            if abs(actor.x - ego_x) - (self.ego_len + actor.length) / 2.0 <= 0.0:
                if abs(actor.y - ego_y) <= (self.ego_w + actor.width) / 2.0:
                    return actor.actor_id
        return None

    def _halt(self, collision_actor: int, perceived: float) -> None:
        """Collision halt: impact trace entry + COLLISION/SIMULATION_HALTED."""
        self.events.record_step(
            true_delta=self._true_delta(),
            perceived_delta=perceived,
            ego_speed=self.ego_speed,
        )
        self.events.record(SimulationEvent(
            kind=EventKind.COLLISION,
            time_s=self.time_s,
            step_index=self.step,
            details={"actor_id": float(collision_actor)},
        ))
        self.events.record(SimulationEvent(
            kind=EventKind.SIMULATION_HALTED, time_s=self.time_s, step_index=self.step
        ))
        self.halted = True
        self._finish()

    def _finish(self) -> None:
        if self.attack_was_active:
            self.events.record(SimulationEvent(
                kind=EventKind.ATTACK_ENDED, time_s=self.time_s, step_index=self.step
            ))
        self.tracker.reset()
        if self.replica is not None:
            self._stop_replica()
        self.done = True

    def result(self) -> SimulationResult:
        ego = ActorSnapshot(
            actor_id=self.ego_id,
            kind=ActorKind.VEHICLE,
            position=Vec2(self.ego_x, self.ego_y),
            velocity=Vec2(self.ego_speed, 0.0),
            dimensions=self.ego_dims,
            is_ego=True,
        )
        actors = tuple(
            ActorSnapshot(
                actor_id=actor.actor_id,
                kind=actor.kind,
                position=Vec2(actor.x, actor.y),
                velocity=Vec2(actor.vx, actor.vy),
                dimensions=actor.dims,
            )
            for actor in self.actors
        )
        snapshot = GroundTruthSnapshot(
            time_s=self.time_s, step_index=self.step, ego=ego, actors=actors
        )
        return SimulationResult(
            scenario_id=self.scenario_id,
            events=self.events,
            steps_executed=self.step,
            duration_s=self.time_s,
            halted_on_collision=self.halted,
            final_snapshot=snapshot,
            target_actor_id=self._current_target_id(),
        )


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
        # Both kinds of lane draw their sensor seeds on construction, so
        # building them in spec order keeps every generator's draw order.
        self._lanes: List[_Lane | Simulator] = [
            _Lane(spec, self.config, self._pool) if _shares_row_core(spec)
            else Simulator(spec.scenario, spec.ads, config=self.config,
                           attacker=spec.attacker, rng=spec.rng)
            for spec in specs
        ]

    def run(self) -> List[SimulationResult]:
        """Execute all lanes to completion; results are in spec order."""
        lanes = [lane for lane in self._lanes
                 if isinstance(lane, _Lane) and not lane.done]
        for start in range(0, len(lanes), LOCKSTEP_LANES):
            self._run_group(lanes[start:start + LOCKSTEP_LANES])
        return [lane.result() if isinstance(lane, _Lane) else lane.run()
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
