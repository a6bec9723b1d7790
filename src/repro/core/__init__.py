"""RoboTack: the paper's primary contribution.

The smart malware answers three questions (paper §I):

* **what** to attack — the scenario matcher selects the target object and an
  attack vector (`Move_Out`, `Move_In`, `Disappear`) from the rule table of
  paper Table I (:mod:`repro.core.scenario_matcher`);
* **when** to attack — the safety hijacker predicts the post-attack safety
  potential with a feed-forward neural network and scans candidate attack
  windows for a short one that clears the launch threshold; paper Eq. 2's
  binary search is kept as the alternative (:mod:`repro.core.safety_hijacker`);
* **how** to attack — the trajectory hijacker perturbs the camera feed within
  the detector's characterized noise so the Kalman-filter tracker follows a
  fake trajectory (:mod:`repro.core.trajectory_hijacker`).

:mod:`repro.core.robotack` combines the three into the per-frame attack
procedure of paper Algorithm 1; :mod:`repro.core.baselines` provides the
random-attack baseline and the "RoboTack without safety hijacker" ablation;
:mod:`repro.core.training` collects the simulation dataset used to train the
safety hijacker.
"""

from repro.core.attack_vectors import AttackVector
from repro.core.baselines import RandomAttacker, RoboTackWithoutSafetyHijacker
from repro.core.robotack import RoboTack, RoboTackConfig
from repro.core.safety_hijacker import (
    AttackDecision,
    AttackFeatures,
    KinematicSafetyPredictor,
    NeuralSafetyPredictor,
    SafetyHijacker,
    SafetyHijackerConfig,
)
from repro.core.scenario_matcher import ScenarioMatcher, TrajectoryClass
from repro.core.trajectory_hijacker import TrajectoryHijacker, TrajectoryHijackerConfig
from repro.core.training import (
    OracleArtifact,
    SafetyDataset,
    ScriptedAttacker,
    collect_safety_dataset,
    load_registered_predictor,
    train_and_register_predictor,
    train_neural_safety_predictor,
)

__all__ = [
    "AttackVector",
    "RandomAttacker",
    "RoboTackWithoutSafetyHijacker",
    "RoboTack",
    "RoboTackConfig",
    "AttackDecision",
    "AttackFeatures",
    "KinematicSafetyPredictor",
    "NeuralSafetyPredictor",
    "SafetyHijacker",
    "SafetyHijackerConfig",
    "ScenarioMatcher",
    "TrajectoryClass",
    "TrajectoryHijacker",
    "TrajectoryHijackerConfig",
    "OracleArtifact",
    "SafetyDataset",
    "ScriptedAttacker",
    "collect_safety_dataset",
    "load_registered_predictor",
    "train_and_register_predictor",
    "train_neural_safety_predictor",
]
