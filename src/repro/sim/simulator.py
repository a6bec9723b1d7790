"""The simulation loop.

Each step (one camera frame at 15 Hz) the simulator:

1. renders the sensor measurements from the live world,
2. lets the (optional) man-in-the-middle attacker observe and perturb the
   camera frame — the attack surface of paper §III-B,
3. runs the victim ADS on the (possibly perturbed) sensors,
4. applies the ADS actuation to the ego vehicle and advances all actors,
5. records safety events: emergency braking, collisions, attack start/end,
   and the ground-truth / perceived safety-potential traces used by the
   evaluation harness.

The loop halts early on a physical collision, mirroring how the LGSVL
simulator stops when actors come too close.  The batch engine
(:mod:`repro.sim.batch`) runs the same world, sensor and bookkeeping code —
:class:`RunRecorder` keeps every event and trace — on its lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol

import numpy as np

from repro.ads.safety import SafetyModel, ground_truth_delta
from repro.sensors.camera import CameraFrame, CameraSensor
from repro.sensors.gps_imu import GpsImuSensor
from repro.sensors.lidar import LidarScan, LidarSensor
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


class Simulator:
    """Runs one driving scenario against the ADS, optionally under attack.

    The simulator drives its scenario's own :class:`~repro.sim.world.World`;
    the run's config sets the ego vehicle's acceleration limits.
    """

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
        self.safety_model = SafetyModel(
            comfortable_decel_mps2=self.config.comfortable_decel_mps2
        )
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
        """Execute the scenario until its duration elapses or a collision halts it."""
        world = self.scenario.world
        dt = self.config.dt
        lidar_due = self.config.lidar_due
        recorder = RunRecorder(self)
        # Actors spawned already overlapping halt at step 0 instead of driving
        # the ego through them for the full duration.
        steps = 0 if recorder.halt_on_collision(float("inf")) else self.max_steps
        last_lidar_scan: Optional[LidarScan] = None
        for step in range(steps):
            camera_frame = self.camera.capture(world)
            if lidar_due(step):
                last_lidar_scan = self.lidar.scan(world)
            ego_pose = self.gps_imu.measure(world)

            delivered_frame = camera_frame
            if self.attacker is not None:
                delivered_frame = self.attacker.process_frame(
                    camera_frame, ego_speed_mps=ego_pose.speed_mps, dt=dt
                )
                recorder.log_attack()

            decision = self.ads.step(delivered_frame, last_lidar_scan, ego_pose, dt)
            recorder.record_step(decision.emergency_brake, decision.perceived_delta_m)
            world.step(dt, ego_acceleration_mps2=decision.acceleration_mps2)
            if recorder.halt_on_collision(decision.perceived_delta_m):
                break
        return recorder.finish()


class RunRecorder:
    """The events and traces of one run, read off its live world.

    Both engines keep their bookkeeping through it, at the same points of a
    step: :meth:`log_attack` after the attacker saw the frame,
    :meth:`record_step` once the ADS has decided (before the world advances),
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
        self.safety_model = simulator.safety_model
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
