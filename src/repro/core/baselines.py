"""Baseline attackers used for comparison (paper §VI-B and §VI-D).

* :class:`RandomAttacker` — the ``Baseline-Random`` attack: a randomly chosen
  target, attack vector, start time, and duration.  It uses the same
  trajectory-hijacking mechanics but neither the scenario matcher nor the
  safety hijacker.
* :class:`RoboTackWithoutSafetyHijacker` — the "R w/o SH" ablation: the
  scenario matcher and trajectory hijacker are used, but the attack starts at
  a random time and lasts a random number of frames (15-85), bypassing the
  safety hijacker's timing decision.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.attack_vectors import AttackVector
from repro.core.robotack import CameraMitmAttackerBase, RoboTackConfig
from repro.core.safety_hijacker import AttackFeatures
from repro.core.scenario_matcher import ScenarioMatcher
from repro.sim.road import Road

__all__ = ["RandomAttacker", "RoboTackWithoutSafetyHijacker"]

#: Range of random attack durations used by the baselines (paper: K* was
#: randomly picked between 15 and 85 frames).
_RANDOM_K_RANGE = (15, 85)


class RandomAttacker(CameraMitmAttackerBase):
    """Baseline-Random: random target, vector, start time, and duration.

    The target is drawn from all non-ego actors of the scenario (not just the
    objects currently visible to the camera), matching the paper's baseline of
    "randomly chosen non-AV vehicles or pedestrians".  If the chosen actor is
    not visible when the randomly chosen start time arrives, the attack
    episode fizzles without perturbing anything.
    """

    def __init__(
        self,
        road: Road,
        config: RoboTackConfig | None = None,
        rng: np.random.Generator | None = None,
        start_window_frames: tuple[int, int] = (30, 400),
        candidate_target_actor_ids: Sequence[int] | None = None,
    ):
        super().__init__(road, config, rng)
        low, high = start_window_frames
        if low > high:
            raise ValueError("start window must be ordered (low, high)")
        self._start_frame = int(self._rng.integers(low, high + 1))
        self._duration = int(self._rng.integers(_RANDOM_K_RANGE[0], _RANDOM_K_RANGE[1] + 1))
        self._vector = AttackVector(
            self._rng.choice([v.value for v in (config or RoboTackConfig()).allowed_vectors])
        )
        self._chosen_actor_id: Optional[int] = None
        if candidate_target_actor_ids:
            candidates = list(candidate_target_actor_ids)
            self._chosen_actor_id = int(candidates[int(self._rng.integers(0, len(candidates)))])
        self._fizzled = False

    @property
    def episode_over(self) -> bool:
        return self._attack_completed or self._fizzled

    def _maybe_launch(
        self, estimates: Sequence[tuple], ego_speed_mps: float
    ) -> Optional[tuple[AttackVector, int, tuple, Optional[AttackFeatures], float]]:
        if self._frame_count < self._start_frame or self._fizzled:
            return None
        # Estimate rows ahead (positive distance), of the chosen actor if any.
        candidates = [e for e in estimates if e[0] > 0]
        if self._chosen_actor_id is not None:
            candidates = [e for e in candidates if e[5] == self._chosen_actor_id]
            if not candidates:
                # The pre-selected actor is not in view at the chosen time: the
                # random attack fires into nothing (one episode per run).
                self._fizzled = True
                return None
        if not candidates:
            return None
        target = candidates[int(self._rng.integers(0, len(candidates)))]
        features = self._features_for(target, ego_speed_mps)
        return self._vector, self._duration, target, features, float("nan")


class RoboTackWithoutSafetyHijacker(CameraMitmAttackerBase):
    """"R w/o SH": scenario matching and trajectory hijacking at a random time."""

    def __init__(
        self,
        road: Road,
        config: RoboTackConfig | None = None,
        rng: np.random.Generator | None = None,
        start_window_frames: tuple[int, int] = (30, 300),
    ):
        super().__init__(road, config, rng)
        low, high = start_window_frames
        if low > high:
            raise ValueError("start window must be ordered (low, high)")
        self._start_frame = int(self._rng.integers(low, high + 1))
        self._duration = int(self._rng.integers(_RANDOM_K_RANGE[0], _RANDOM_K_RANGE[1] + 1))
        self.scenario_matcher = ScenarioMatcher(
            road, self.config.matcher, allowed_vectors=self.config.allowed_vectors
        )

    def _maybe_launch(
        self, estimates: Sequence[tuple], ego_speed_mps: float
    ) -> Optional[tuple[AttackVector, int, tuple, Optional[AttackFeatures], float]]:
        if self._frame_count < self._start_frame:
            return None
        target = self._closest_target(estimates)
        if target is None:
            return None
        vector = self.scenario_matcher.match(target)
        if vector is None:
            return None
        features = self._features_for(target, ego_speed_mps)
        return vector, self._duration, target, features, float("nan")
