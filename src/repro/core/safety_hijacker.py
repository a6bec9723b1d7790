"""The safety hijacker: deciding *when* to attack (paper §IV-B).

The safety hijacker approximates an oracle ``f_alpha`` that predicts the
safety potential ``delta_{t+k}`` after attacking for ``k`` consecutive frames,
given the current safety potential and the target's relative velocity and
acceleration.  The paper approximates the oracle with a per-attack-vector
feed-forward neural network (100, 100, 50 neurons, ReLU, dropout 0.1) trained
on simulated attack responses; this module provides:

* :class:`NeuralSafetyPredictor` — the paper's NN predictor (built on
  :mod:`repro.nn`), with input normalization;
* :class:`KinematicSafetyPredictor` — a closed-form constant-acceleration
  predictor, used as a fast fallback and as an ablation of the NN;
* :class:`SafetyHijacker` — the decision logic: attack only when the predicted
  safety potential after the stealth bound ``Kmax`` frames falls below the
  launch threshold.  The default search (``search_method="scan"``) then steps
  ``k`` from ``k_min_frames`` (12) by ``scan_step_frames`` (3) and takes the
  first ``k`` that clears the threshold together with ``k + step``, falling
  back to ``Kmax``.  Paper Eq. 2's binary search for the minimal ``k`` (valid
  when the predicted delta is non-increasing in ``k``) is kept as
  ``search_method="binary"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Protocol, Union

import numpy as np

from repro.core.attack_vectors import AttackVector
from repro.nn import FeedForwardNetwork
from repro.perception.detection import DetectorConfig
from repro.sim.actors import ActorKind

__all__ = [
    "AttackFeatures",
    "AttackDecision",
    "SafetyPredictor",
    "KinematicSafetyPredictor",
    "NeuralSafetyPredictor",
    "SafetyHijackerConfig",
    "SafetyHijacker",
    "k_max_frames_for",
]


@dataclass(frozen=True)
class AttackFeatures:
    """Kinematic inputs to the safety-potential oracle at decision time ``t``."""

    #: Safety potential (m) as estimated by the malware's own perception.
    delta_m: float
    #: Relative longitudinal velocity of the target (m/s, negative when closing).
    relative_velocity_mps: float
    #: Relative longitudinal acceleration of the target (m/s^2).
    relative_acceleration_mps2: float

    def as_array(self, k: int) -> np.ndarray:
        """The NN input vector ``[delta, v_rel, a_rel, k]``."""
        return np.array(
            [self.delta_m, self.relative_velocity_mps, self.relative_acceleration_mps2, float(k)]
        )


@dataclass(frozen=True)
class AttackDecision:
    """Outcome of the safety hijacker for one candidate attack."""

    attack: bool
    #: Number of consecutive frames the attack must be maintained (0 when not attacking).
    k_frames: int
    #: Predicted safety potential after ``k_frames`` of attack.
    predicted_delta_m: float


class SafetyPredictor(Protocol):
    """Interface of the oracle ``f_alpha``: predict ``delta_{t+k}``."""

    def predict_delta(self, features: AttackFeatures, k: int) -> float:
        """Predicted safety potential after ``k`` frames of attack."""
        ...


class KinematicSafetyPredictor:
    """Closed-form constant-acceleration approximation of the oracle.

    During a `Move_Out`/`Disappear` attack the EV stops reacting to the target
    and accelerates back towards its cruise speed, so the gap closes at the
    current relative velocity plus an extra closing acceleration.  During a
    `Move_In` attack the EV brakes, but the quantity of interest is the
    *perceived* safety potential towards the faked in-path obstacle, which
    shrinks with the current closing speed.
    """

    def __init__(
        self,
        vector: AttackVector,
        frame_dt_s: float = 1.0 / 15.0,
        ego_free_acceleration_mps2: float = 1.0,
    ):
        self.vector = vector
        self.frame_dt_s = frame_dt_s
        self.ego_free_acceleration_mps2 = ego_free_acceleration_mps2

    def predict_delta(self, features: AttackFeatures, k: int) -> float:
        horizon_s = max(0, k) * self.frame_dt_s
        closing_velocity = features.relative_velocity_mps
        closing_acceleration = features.relative_acceleration_mps2
        if self.vector is not AttackVector.MOVE_IN:
            # The EV speeds back up towards cruise while the target is hidden
            # or believed to be leaving the lane.
            closing_acceleration -= self.ego_free_acceleration_mps2
        predicted = (
            features.delta_m
            + closing_velocity * horizon_s
            + 0.5 * closing_acceleration * horizon_s * horizon_s
        )
        return float(predicted)


class NeuralSafetyPredictor:
    """The paper's neural oracle with input and target standardization."""

    INPUT_DIM = 4

    def __init__(
        self,
        network: FeedForwardNetwork,
        feature_means: np.ndarray,
        feature_stds: np.ndarray,
        target_mean: float = 0.0,
        target_std: float = 1.0,
    ):
        feature_means = np.asarray(feature_means, dtype=float).reshape(-1)
        feature_stds = np.asarray(feature_stds, dtype=float).reshape(-1)
        if feature_means.shape[0] != self.INPUT_DIM or feature_stds.shape[0] != self.INPUT_DIM:
            raise ValueError(f"normalization vectors must have length {self.INPUT_DIM}")
        self.network = network
        self.feature_means = feature_means
        self.feature_stds = np.where(feature_stds <= 0, 1.0, feature_stds)
        self.target_mean = float(target_mean)
        self.target_std = float(target_std) if target_std > 0 else 1.0

    @classmethod
    def untrained(cls, rng: np.random.Generator | None = None) -> "NeuralSafetyPredictor":
        """A predictor with the paper's architecture and identity normalization."""
        network = FeedForwardNetwork.safety_hijacker_architecture(cls.INPUT_DIM, rng=rng)
        return cls(network, np.zeros(cls.INPUT_DIM), np.ones(cls.INPUT_DIM))

    def normalize(self, raw_inputs: np.ndarray) -> np.ndarray:
        """Standardize raw inputs with the training-set statistics."""
        return (np.atleast_2d(raw_inputs) - self.feature_means) / self.feature_stds

    def predict_delta(self, features: AttackFeatures, k: int) -> float:
        inputs = self.normalize(features.as_array(k))
        normalized = float(self.network.predict(inputs)[0, 0])
        return normalized * self.target_std + self.target_mean

    def predict_batch(self, raw_inputs: np.ndarray) -> np.ndarray:
        """Vectorized prediction over raw (unnormalized) input rows."""
        normalized = self.network.predict(self.normalize(raw_inputs)).reshape(-1)
        return normalized * self.target_std + self.target_mean

    # ------------------------------------------------------------------ #
    # Serialization — the trained oracle as a durable artifact
    # ------------------------------------------------------------------ #

    #: Format tag of the predictor document; readers reject other formats.
    FORMAT = "repro-neural-safety-predictor"
    #: Bump when the predictor schema changes incompatibly.
    VERSION = 1

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the predictor (network + baked-in standardization) under ``path``.

        Layout: ``<path>/predictor.json`` holds the normalization statistics
        (JSON floats round-trip exactly in Python) and ``<path>/network/``
        holds the network saved by :meth:`FeedForwardNetwork.save`.  A loaded
        copy (:meth:`load`) predicts bit-identically.
        """
        from repro.runtime.cache import atomic_publish

        directory = Path(path).expanduser()
        directory.mkdir(parents=True, exist_ok=True)
        self.network.save(directory / "network")
        payload = {
            "format": self.FORMAT,
            "version": self.VERSION,
            "feature_means": [float(value) for value in self.feature_means],
            "feature_stds": [float(value) for value in self.feature_stds],
            "target_mean": self.target_mean,
            "target_std": self.target_std,
        }
        atomic_publish(
            directory / "predictor.json",
            lambda handle: handle.write(json.dumps(payload, indent=2).encode("utf-8")),
        )
        return directory

    @classmethod
    def load(cls, path: Union[str, Path]) -> "NeuralSafetyPredictor":
        """Rebuild a predictor previously persisted with :meth:`save`."""
        directory = Path(path).expanduser()
        with (directory / "predictor.json").open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != cls.FORMAT:
            raise ValueError(
                f"not a serialized predictor: format={payload.get('format')!r}"
            )
        version = int(payload.get("version", 0))
        if version > cls.VERSION:
            raise ValueError(
                f"predictor saved by a newer serialization version "
                f"({version} > {cls.VERSION})"
            )
        return cls(
            FeedForwardNetwork.load(directory / "network"),
            np.asarray(payload["feature_means"], dtype=float),
            np.asarray(payload["feature_stds"], dtype=float),
            target_mean=float(payload["target_mean"]),
            target_std=float(payload["target_std"]),
        )


def _default_launch_thresholds() -> Dict[AttackVector, float]:
    # Move_Out / Disappear: launch only when the post-attack safety potential
    # is predicted to fall to the accident level (paper §IV-B: "ideally, the
    # malware should attack when gamma = 4").  Move_In aims at forcing
    # emergency braking rather than reducing the true safety potential, so its
    # threshold applies to the perceived safety potential of the faked in-path
    # obstacle at the moment it appears to the planner.
    return {
        AttackVector.MOVE_OUT: 4.0,
        AttackVector.DISAPPEAR: 4.0,
        AttackVector.MOVE_IN: 3.0,
    }


def k_max_frames_for(detector_config: DetectorConfig | None = None) -> Dict[ActorKind, int]:
    """The stealth bound Kmax per target kind, for a detector (the default
    one when ``None``).

    Kmax is the 99th percentile of the detector's continuous-misdetection
    bursts (paper Fig. 5a-b): 31 frames for pedestrians and 59 for vehicles
    with the default detector.  A degraded detector has longer bursts, so the
    attacker may hide behind a correspondingly longer window without
    tripping the intrusion detector.
    """
    detector = detector_config or DetectorConfig()
    return {
        kind: int(round(detector.noise_for(kind).misdetection_burst_p99_frames))
        for kind in (ActorKind.PEDESTRIAN, ActorKind.VEHICLE)
    }


@dataclass(frozen=True)
class SafetyHijackerConfig:
    """Decision thresholds of the safety hijacker."""

    launch_threshold_m: Dict[AttackVector, float] = field(
        default_factory=_default_launch_thresholds
    )
    k_max_frames: Dict[ActorKind, int] = field(default_factory=k_max_frames_for)
    #: Smallest attack window worth launching.
    k_min_frames: int = 12
    #: How the minimal attack window is located: ``"scan"`` evaluates a coarse
    #: grid of candidate windows and requires two neighbouring windows to both
    #: clear the threshold (robust to oracle error); ``"binary"`` is the
    #: paper's O(log Kmax) binary search, valid when the predicted safety
    #: potential is monotone non-increasing in k.
    search_method: str = "scan"
    #: Step between candidate windows evaluated by the scan search.
    scan_step_frames: int = 3

    def __post_init__(self) -> None:
        if self.search_method not in ("scan", "binary"):
            raise ValueError("search_method must be 'scan' or 'binary'")
        if self.k_min_frames < 1 or self.scan_step_frames < 1:
            raise ValueError("k_min_frames and scan_step_frames must be positive")

    def threshold_for(self, vector: AttackVector) -> float:
        return self.launch_threshold_m[vector]

    def k_max_for(self, kind: ActorKind) -> int:
        return self.k_max_frames[kind]


class SafetyHijacker:
    """Decides when to attack and for how many frames."""

    def __init__(self, predictor: SafetyPredictor, config: SafetyHijackerConfig | None = None):
        self.predictor = predictor
        self.config = config or SafetyHijackerConfig()

    def decide(
        self, features: AttackFeatures, vector: AttackVector, target_kind: ActorKind
    ) -> AttackDecision:
        """Return the attack/no-attack decision and the attack window ``K``.

        The decision follows paper Eq. (2): attack only if the predicted
        safety potential after ``Kmax`` frames is below the launch threshold.
        ``K`` is then the scan's first ``k`` that clears the threshold together
        with ``k + scan_step_frames``, else ``Kmax`` (the default), or the
        smallest clearing ``k`` by binary search (``search_method="binary"``).
        """
        k_max = self.config.k_max_for(target_kind)
        threshold = self.config.threshold_for(vector)
        predicted_at_kmax = self.predictor.predict_delta(features, k_max)
        if predicted_at_kmax > threshold:
            return AttackDecision(attack=False, k_frames=0, predicted_delta_m=predicted_at_kmax)
        if self.config.search_method == "binary":
            k, predicted = self._binary_search(features, threshold, k_max)
        else:
            k, predicted = self._scan_search(features, threshold, k_max, predicted_at_kmax)
        return AttackDecision(attack=True, k_frames=k, predicted_delta_m=predicted)

    def _binary_search(
        self, features: AttackFeatures, threshold: float, k_max: int
    ) -> tuple[int, float]:
        """Paper Eq. (2): minimal k via binary search under monotonicity."""
        low, high = self.config.k_min_frames, k_max
        best_k = k_max
        best_prediction = self.predictor.predict_delta(features, k_max)
        while low <= high:
            mid = (low + high) // 2
            predicted = self.predictor.predict_delta(features, mid)
            if predicted <= threshold:
                best_k = mid
                best_prediction = predicted
                high = mid - 1
            else:
                low = mid + 1
        return best_k, best_prediction

    def _scan_search(
        self, features: AttackFeatures, threshold: float, k_max: int, predicted_at_kmax: float
    ) -> tuple[int, float]:
        """Minimal k via a coarse scan, requiring a consistent neighbourhood.

        A candidate window ``k`` is accepted only when both ``k`` and
        ``k + scan_step`` clear the threshold, which filters out spurious dips
        of the learned oracle.
        """
        step = self.config.scan_step_frames
        for k in range(self.config.k_min_frames, k_max, step):
            predicted = self.predictor.predict_delta(features, k)
            if predicted > threshold:
                continue
            neighbour = self.predictor.predict_delta(features, min(k + step, k_max))
            if neighbour <= threshold:
                return k, predicted
        return k_max, predicted_at_kmax
