"""RoboTack: the per-frame attack procedure of paper Algorithm 1.

RoboTack sits as a man-in-the-middle on the camera link.  Every camera frame
it:

1. reconstructs its own approximate world state ``S_hat_t`` with a camera-only
   perception pipeline (paper Phase 2, step 1);
2. while no attack is active, identifies the target object (the object closest
   to the EV), estimates the safety potential and the target's relative
   kinematics, and asks the scenario matcher for an applicable attack vector
   (Phase 2, steps 2-3);
3. asks the safety hijacker whether *now* is the opportune moment, and for how
   many frames ``K`` the attack must be maintained (Phase 2, step 4);
4. once attacking, lets the trajectory hijacker perturb the camera frame for
   ``K`` consecutive frames (Phase 3).

While an attack is active the malware's own perception consumes the *perturbed*
frames so that its tracker state mirrors the victim's tracker state — the
``s_hat_{t-1}`` used by the association constraint of paper Eq. (4).

The attacker works on the rows the simulation lane already carries.  A
camera frame is the camera's rendered rows, ``(distance, lateral, actor_id,
kind, cx, cy, w, h, object_height, object_width)`` per visible object
(:mod:`repro.sensors.camera`); the attacker delivers rows in the same layout,
and the victim's detector reads them.  Its world state ``S_hat_t`` is the
replica's estimate rows, ``(distance, lateral, rel_velocity,
lateral_velocity, track_id, actor_id, kind, rel_acceleration, age_frames)``
(``ImageToWorldTransform.estimate_rows``); the target is one of them.

One attack episode is mounted per run.  Once it is over nothing reads the
reconstruction any more, so the attacker stops running it.  The per-frame hook
is split around the reconstruction step (:meth:`frame_for_replica`, then
:meth:`frame_to_deliver`): a simulation lane calls the two halves around its
step of the replica, so the replicas of many runs step in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import List, Optional, Sequence

import numpy as np

from repro.ads.safety import SafetyModel
from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import AttackDecision, AttackFeatures, SafetyHijacker
from repro.core.scenario_matcher import ScenarioMatcher, ScenarioMatcherConfig
from repro.core.trajectory_hijacker import TrajectoryHijacker, TrajectoryHijackerConfig
from repro.perception.detection import DetectorConfig
from repro.perception.fusion import FusionConfig
from repro.perception.pipeline import PerceptionConfig, PerceptionSystem
from repro.sim.actors import NOMINAL_DIMENSIONS, ActorKind
from repro.sim.road import Road

__all__ = ["AttackRecord", "RoboTackConfig", "CameraMitmAttackerBase", "RoboTack"]

#: Nominal half-lengths used to convert centre distance into a bumper gap.
_HALF_LENGTH_M = {kind: dims.length_m / 2.0 for kind, dims in NOMINAL_DIMENSIONS.items()}
_first = itemgetter(0)


@dataclass
class AttackRecord:
    """Bookkeeping of one attack episode (consumed by the evaluation harness)."""

    vector: Optional[AttackVector] = None
    target_actor_id: Optional[int] = None
    target_kind: Optional[ActorKind] = None
    start_frame: Optional[int] = None
    planned_k_frames: int = 0
    frames_perturbed: int = 0
    shift_frames_k_prime: int = 0
    predicted_delta_m: float = float("nan")
    features_at_launch: Optional[AttackFeatures] = None

    @property
    def launched(self) -> bool:
        return self.start_frame is not None


def _camera_only(detector_config: DetectorConfig | None = None) -> PerceptionConfig:
    """The replica's pipeline: ``detector_config`` under the camera-only policy."""
    return PerceptionConfig(
        detector=detector_config or DetectorConfig(),
        fusion=FusionConfig(policy="camera_only"),
    )


@dataclass(frozen=True)
class RoboTackConfig:
    """Configuration shared by RoboTack and its baselines."""

    #: Attack vectors the scenario matcher may select (campaigns usually pin one).
    allowed_vectors: Sequence[AttackVector] = tuple(AttackVector)
    #: Number of consecutive frames for which the safety hijacker must keep
    #: recommending an attack before the attack is actually launched; guards
    #: against launching on a single noisy kinematic estimate.
    launch_confirmation_frames: int = 2
    matcher: ScenarioMatcherConfig = field(default_factory=ScenarioMatcherConfig)
    hijacker: TrajectoryHijackerConfig = field(default_factory=TrajectoryHijackerConfig)
    #: The malware's camera-only reconstruction pipeline.
    perception: PerceptionConfig = field(default_factory=_camera_only)

    @classmethod
    def for_detector(
        cls,
        allowed_vectors: Sequence[AttackVector],
        detector_config=None,
    ) -> "RoboTackConfig":
        """An attacker configuration consistent with a victim detector model.

        The attack's stealth bounds and the malware's own camera-only
        reconstruction are by construction derived from the victim detector's
        noise model; scenarios that override it (degraded sensing) must
        recalibrate the attacker through this single factory so training-time
        and evaluation-time attackers can never drift apart.
        """
        detector = detector_config or DetectorConfig()
        return cls(
            allowed_vectors=tuple(allowed_vectors),
            hijacker=TrajectoryHijackerConfig(detector=detector),
            perception=_camera_only(detector),
        )


class CameraMitmAttackerBase:
    """Shared machinery of RoboTack and its baselines.

    Owns the camera-only reconstruction pipeline and the trajectory hijacker,
    and implements the per-frame bookkeeping; subclasses only decide *whether*
    and *how long* to attack via :meth:`_maybe_launch`.  Every attacker a
    simulation lane runs is one: the lane calls the split frame hook around
    its own step of :attr:`perception`, the replica.
    """

    def __init__(
        self,
        road: Road,
        config: RoboTackConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.road = road
        self.config = config or RoboTackConfig()
        self._rng = rng if rng is not None else np.random.default_rng()
        self.perception = PerceptionSystem(self.config.perception, rng=self._rng)
        self.trajectory_hijacker = TrajectoryHijacker(road, self.config.hijacker)
        self.safety_model = SafetyModel()
        self.record = AttackRecord()
        self._attack_active = False
        self._remaining_frames = 0
        self._attack_completed = False
        self._frame_count = 0

    # ------------------------------------------------------------------ #
    # The frame hook and the state a simulation lane logs
    # ------------------------------------------------------------------ #

    @property
    def attack_active(self) -> bool:
        return self._attack_active

    @property
    def target_actor_id(self) -> Optional[int]:
        return self.record.target_actor_id

    @property
    def episode_over(self) -> bool:
        """Whether this run's one attack episode is over (or can no longer start).

        From then on the attacker passes every frame through unchanged and
        nothing reads its reconstruction, so the replica stops running.
        """
        return self._attack_completed

    def frame_for_replica(self, frame: List[tuple]) -> List[tuple]:
        """First half of a frame: count it and return what the replica observes.

        While an attack runs this is the perturbed frame, which is also what
        the ADS sees, so the reconstruction mirrors the victim's tracker.  The
        perturbation reads the replica's target track as the previous frame
        left it.
        """
        self._frame_count += 1
        if not self._attack_active:
            return frame
        return self._continue_attack(frame)

    def frame_to_deliver(
        self,
        observed: List[tuple],
        estimates: Sequence[tuple],
        ego_speed_mps: float,
    ) -> List[tuple]:
        """Second half of a frame: the frame the ADS sees, given the replica's
        estimate rows for ``observed``.

        When no attack is running this decides whether to launch one; a launch
        perturbs the frame with the target track as the replica left it after
        this frame.
        """
        if self._attack_active or self.episode_over:
            return observed
        launch = self._maybe_launch(estimates, ego_speed_mps)
        if launch is None:
            return observed
        vector, k_frames, target, features, predicted = launch
        self._begin_attack(vector, k_frames, target, features, predicted)
        return self._continue_attack(observed)

    # ------------------------------------------------------------------ #
    # Episode management
    # ------------------------------------------------------------------ #

    def _begin_attack(
        self,
        vector: AttackVector,
        k_frames: int,
        target: tuple,
        features: Optional[AttackFeatures],
        predicted_delta: float,
    ) -> None:
        _distance, lateral, _v, _lv, _tid, actor_id, kind, _a, _age = target
        self.record = AttackRecord(
            vector=vector,
            target_actor_id=actor_id,
            target_kind=kind,
            start_frame=self._frame_count,
            planned_k_frames=k_frames,
            predicted_delta_m=predicted_delta,
            features_at_launch=features,
        )
        self.trajectory_hijacker.begin(
            vector=vector,
            target_actor_id=actor_id,
            target_lateral_m=lateral,
            target_kind=kind,
        )
        self._attack_active = True
        self._remaining_frames = max(1, k_frames)

    def _continue_attack(self, frame: List[tuple]) -> List[tuple]:
        target_track = None
        if self.record.target_actor_id is not None:
            target_track = self.perception.tracker.track_for_actor(
                self.record.target_actor_id
            )
        delivered = self.trajectory_hijacker.perturb_frame(frame, target_track)
        self._remaining_frames -= 1
        self.record.frames_perturbed = self.trajectory_hijacker.frames_perturbed
        self.record.shift_frames_k_prime = self.trajectory_hijacker.shift_frames_k_prime
        if self._remaining_frames <= 0:
            self._attack_active = False
            self._attack_completed = True
            self.trajectory_hijacker.end()
        return delivered

    # ------------------------------------------------------------------ #
    # Target/feature extraction shared by subclasses
    # ------------------------------------------------------------------ #

    def _closest_target(self, estimates: Sequence[tuple]) -> Optional[tuple]:
        """The estimate row of the nearest object ahead (positive distance),
        if any."""
        ahead = [e for e in estimates if e[0] > 0]
        if not ahead:
            return None
        return min(ahead, key=_first)

    def _features_for(self, estimate: tuple, ego_speed_mps: float) -> AttackFeatures:
        distance, _lateral, velocity, _lv, _tid, _aid, kind, acceleration, _age = estimate
        gap = distance - _HALF_LENGTH_M[kind]
        delta = self.safety_model.safety_potential(gap, ego_speed_mps)
        return AttackFeatures(
            delta_m=delta,
            relative_velocity_mps=velocity,
            relative_acceleration_mps2=acceleration,
        )

    def _maybe_launch(
        self, estimates: Sequence[tuple], ego_speed_mps: float
    ) -> Optional[tuple[AttackVector, int, tuple, Optional[AttackFeatures], float]]:
        """Subclasses decide whether to start an attack this frame: ``None``,
        or ``(vector, k_frames, target estimate row, features, predicted
        delta)``."""
        raise NotImplementedError


class RoboTack(CameraMitmAttackerBase):
    """The full smart malware: scenario matcher + safety hijacker + trajectory hijacker."""

    def __init__(
        self,
        road: Road,
        safety_hijacker: SafetyHijacker,
        config: RoboTackConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(road, config, rng)
        self.safety_hijacker = safety_hijacker
        self.scenario_matcher = ScenarioMatcher(
            road, self.config.matcher, allowed_vectors=self.config.allowed_vectors
        )
        self._consecutive_attack_recommendations = 0

    def _maybe_launch(
        self, estimates: Sequence[tuple], ego_speed_mps: float
    ) -> Optional[tuple[AttackVector, int, tuple, Optional[AttackFeatures], float]]:
        target = self._closest_target(estimates)
        if target is None:
            self._consecutive_attack_recommendations = 0
            return None
        vector = self.scenario_matcher.match(target)
        if vector is None:
            self._consecutive_attack_recommendations = 0
            return None
        kind = target[6]
        features = self._features_for(target, ego_speed_mps)
        decision: AttackDecision = self.safety_hijacker.decide(features, vector, kind)
        if not decision.attack:
            self._consecutive_attack_recommendations = 0
            return None
        self._consecutive_attack_recommendations += 1
        if self._consecutive_attack_recommendations < self.config.launch_confirmation_frames:
            return None
        return vector, decision.k_frames, target, features, decision.predicted_delta_m
